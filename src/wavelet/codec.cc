#include "src/wavelet/codec.h"

#include <cmath>
#include <cstdint>

#include "src/util/assert.h"
#include "src/util/bitpack.h"
#include "src/util/bytes.h"
#include "src/wavelet/denoise.h"

namespace presto {
namespace {

// Exp-Golomb style coding for non-negative integers: unary bucket (bit length - 1)
// followed by the value's low bits. Small magnitudes -> few bits.
void WriteMagnitude(BitWriter* w, uint64_t v) {
  PRESTO_DCHECK(v >= 1);
  int bits = 0;
  uint64_t tmp = v;
  while (tmp > 0) {
    ++bits;
    tmp >>= 1;
  }
  w->WriteUnary(bits - 1);
  if (bits > 1) {
    // Leading bit is implied by the bucket; store the rest.
    w->WriteBits(v & ((1ULL << (bits - 1)) - 1), bits - 1);
  }
}

// Inverse of WriteMagnitude; 0 (never written) for a bucket wider than 63 bits.
uint64_t ReadMagnitude(BitReader* r) {
  const int bucket = r->ReadUnary();
  if (bucket == 0) {
    return 1;
  }
  if (bucket > 63) {
    return 0;
  }
  return (1ULL << bucket) | r->ReadBits(bucket);
}

}  // namespace

namespace {

std::vector<Sample> GridSamples(SimTime start, Duration period,
                                const std::vector<double>& values) {
  std::vector<Sample> out;
  out.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out.push_back(Sample{start + static_cast<Duration>(i) * period, values[i]});
  }
  return out;
}

// Whether a regular grid of `n` samples from `start` every `period` (>= 0) ends at
// a representable time; every earlier sample then fits too.
bool GridFits(SimTime start, Duration period, uint64_t n) {
  if (n == 0) {
    return true;
  }
  SimTime span = 0;
  if (__builtin_mul_overflow(static_cast<int64_t>(n - 1), period, &span)) {
    return false;
  }
  return !__builtin_add_overflow(start, span, &span);
}

}  // namespace

std::vector<uint8_t> EncodeRawBatch(SimTime start, Duration period,
                                    const std::vector<double>& values) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(BatchFormat::kRaw));
  w.WriteVarU64(values.size());
  w.WriteI64(start);
  w.WriteVarU64(static_cast<uint64_t>(period));
  for (double v : values) {
    w.WriteF32(static_cast<float>(v));
  }
  return w.TakeBuffer();
}

Result<std::vector<uint8_t>> EncodeWaveletBatch(SimTime start, Duration period,
                                                const std::vector<double>& values,
                                                const CodecParams& params) {
  if (values.empty()) {
    return InvalidArgumentError("codec: empty batch");
  }
  PRESTO_CHECK(params.quant_step > 0.0);
  auto coeffs = ForwardDwt(values, params.kind, params.levels);
  if (!coeffs.ok()) {
    return coeffs.status();
  }
  if (params.denoise && coeffs->levels >= 1) {
    const double sigma = EstimateNoiseSigma(*coeffs);
    const double threshold =
        UniversalThreshold(sigma, coeffs->PaddedLength()) * params.denoise_scale;
    ThresholdDetails(&*coeffs, threshold, ThresholdMode::kHard);
  }

  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(BatchFormat::kWavelet));
  w.WriteVarU64(values.size());
  w.WriteI64(start);
  w.WriteVarU64(static_cast<uint64_t>(period));
  w.WriteU8(static_cast<uint8_t>(params.kind));
  w.WriteU8(static_cast<uint8_t>(coeffs->levels));
  w.WriteF32(static_cast<float>(params.quant_step));

  // Significance bitmap + sign/magnitude for nonzero quantized coefficients.
  BitWriter bits;
  for (double c : coeffs->data) {
    const int64_t q = static_cast<int64_t>(std::llround(c / params.quant_step));
    if (q == 0) {
      bits.WriteBits(0, 1);
      continue;
    }
    bits.WriteBits(1, 1);
    bits.WriteBits(q < 0 ? 1 : 0, 1);
    WriteMagnitude(&bits, static_cast<uint64_t>(q < 0 ? -q : q));
  }
  w.WriteBytes(bits.bytes());
  return w.TakeBuffer();
}

std::vector<uint8_t> EncodeIrregularBatch(const std::vector<Sample>& samples) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(BatchFormat::kIrregular));
  w.WriteVarU64(samples.size());
  w.WriteI64(samples.empty() ? 0 : samples.front().t);
  w.WriteVarU64(0);  // period: meaningless for irregular data
  SimTime prev = samples.empty() ? 0 : samples.front().t;
  for (const Sample& s : samples) {
    PRESTO_DCHECK(s.t >= prev);
    w.WriteVarU64(static_cast<uint64_t>((s.t - prev) / kMillisecond));
    w.WriteF32(static_cast<float>(s.value));
    prev += ((s.t - prev) / kMillisecond) * kMillisecond;
  }
  return w.TakeBuffer();
}

Result<DecodedBatch> DecodeBatch(span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto format = r.ReadU8();
  if (!format.ok()) {
    return InvalidArgumentError("codec: empty payload");
  }
  auto count = r.ReadVarU64();
  auto start = r.ReadI64();
  auto period = r.ReadVarU64();
  if (!count.ok() || !start.ok() || !period.ok()) {
    return InvalidArgumentError("codec: truncated batch header");
  }
  if (*period > static_cast<uint64_t>(INT64_MAX)) {
    return InvalidArgumentError("codec: negative batch period");
  }
  DecodedBatch out;
  out.format = static_cast<BatchFormat>(*format);
  out.start = *start;
  out.period = static_cast<Duration>(*period);
  // The header is untrusted: every sample it claims must be backed by bytes that
  // follow (or, for wavelet batches, by the coefficient bitmap), and a regular
  // grid's last timestamp must be representable.

  if (*format == static_cast<uint8_t>(BatchFormat::kRaw)) {
    if (*count > r.remaining() / 4) {
      return InvalidArgumentError("codec: raw batch count exceeds its payload");
    }
    if (!GridFits(out.start, out.period, *count)) {
      return InvalidArgumentError("codec: raw batch timestamps overflow");
    }
    std::vector<double> values;
    values.reserve(*count);
    for (uint64_t i = 0; i < *count; ++i) {
      auto v = r.ReadF32();
      if (!v.ok()) {
        return InvalidArgumentError("codec: truncated raw batch");
      }
      values.push_back(static_cast<double>(*v));
    }
    out.samples = GridSamples(out.start, out.period, values);
    return out;
  }
  if (*format == static_cast<uint8_t>(BatchFormat::kIrregular)) {
    // Each sample is at least a one-byte delta and a float32.
    if (*count > r.remaining() / 5) {
      return InvalidArgumentError("codec: irregular batch count exceeds its payload");
    }
    out.samples.reserve(*count);
    SimTime t = out.start;
    for (uint64_t i = 0; i < *count; ++i) {
      auto delta = r.ReadVarU64();
      auto v = r.ReadF32();
      if (!delta.ok() || !v.ok()) {
        return InvalidArgumentError("codec: truncated irregular batch");
      }
      if (*delta > static_cast<uint64_t>(INT64_MAX / kMillisecond) ||
          __builtin_add_overflow(t, static_cast<Duration>(*delta) * kMillisecond, &t)) {
        return InvalidArgumentError("codec: irregular batch timestamps overflow");
      }
      out.samples.push_back(Sample{t, static_cast<double>(*v)});
    }
    return out;
  }
  if (*format != static_cast<uint8_t>(BatchFormat::kWavelet)) {
    return InvalidArgumentError("codec: unknown batch format");
  }

  auto kind = r.ReadU8();
  auto levels = r.ReadU8();
  auto quant = r.ReadF32();
  auto packed = r.ReadBytes();
  if (!kind.ok() || !levels.ok() || !quant.ok() || !packed.ok()) {
    return InvalidArgumentError("codec: truncated wavelet header");
  }
  if (*count == 0) {
    return InvalidArgumentError("codec: empty wavelet batch");
  }
  if (*kind > CkptEnumMax(WaveletKind{})) {
    return InvalidArgumentError("codec: unknown wavelet kind");
  }
  // The bitmap spends at least one bit per padded coefficient.
  const uint64_t bitmap_bits = 8 * static_cast<uint64_t>(packed->size());
  if (*count > bitmap_bits || NextPowerOfTwo(*count) > bitmap_bits) {
    return InvalidArgumentError("codec: wavelet batch count exceeds its bitmap");
  }
  if (!GridFits(out.start, out.period, *count)) {
    return InvalidArgumentError("codec: wavelet batch timestamps overflow");
  }
  DwtCoeffs coeffs;
  coeffs.kind = static_cast<WaveletKind>(*kind);
  coeffs.levels = *levels;
  coeffs.original_length = *count;
  coeffs.data.assign(NextPowerOfTwo(*count), 0.0);
  if (coeffs.levels >= 64 || (coeffs.PaddedLength() >> coeffs.levels) == 0) {
    return InvalidArgumentError("codec: more wavelet levels than the batch supports");
  }

  BitReader bits(*packed);
  for (double& c : coeffs.data) {
    if (bits.ReadBits(1) == 0) {
      continue;
    }
    const bool negative = bits.ReadBits(1) == 1;
    const uint64_t magnitude = ReadMagnitude(&bits);
    if (magnitude == 0) {
      return InvalidArgumentError("codec: wavelet coefficient overflows 64 bits");
    }
    const double value = static_cast<double>(magnitude) * static_cast<double>(*quant);
    c = negative ? -value : value;
  }
  out.samples = GridSamples(out.start, out.period, InverseDwt(coeffs));
  return out;
}

int64_t CompressCostOps(size_t n, const CodecParams& params) {
  return DwtCostOps(n, params.kind) + static_cast<int64_t>(n) * 4;
}

}  // namespace presto
