// Deterministic mutation fuzzing over the batch codec's decode surface.
//
// DecodeBatch reads bytes a sensor's radio delivered: pushes, archive replies and
// replicated batches. Its contract is totality: any byte string comes back as a
// typed Status or a batch whose every claim is backed by the input, never a crash,
// an allocation the input cannot justify, or undefined arithmetic. A seeded Pcg32
// mutates a corpus of valid raw, wavelet and irregular encodings (bit flips,
// truncations, header lies, spliced junk, garbage); seeds are fixed, so a failure
// reproduces exactly, and CI runs this under ASan/UBSan where "never crash" has
// teeth. Named regressions pin the header lies that used to get through.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/rng.h"
#include "src/wavelet/codec.h"

namespace presto {
namespace {

std::vector<double> Signal(size_t n, double phase) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = 20.0 + 3.0 * std::sin(phase + 0.1 * static_cast<double>(i));
  }
  return values;
}

std::vector<std::vector<uint8_t>> BatchCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  for (const size_t n : {1, 2, 5, 16, 33, 100}) {
    const std::vector<double> values = Signal(n, static_cast<double>(n));
    corpus.push_back(EncodeRawBatch(Hours(3), Seconds(31), values));
    for (const WaveletKind kind : {WaveletKind::kHaar, WaveletKind::kDaubechies4}) {
      CodecParams params;
      params.kind = kind;
      auto wavelet = EncodeWaveletBatch(Days(2), Seconds(31), values, params);
      EXPECT_TRUE(wavelet.ok()) << wavelet.status().message();
      corpus.push_back(*wavelet);
    }
    std::vector<Sample> samples;
    for (size_t i = 0; i < n; ++i) {
      samples.push_back(Sample{Hours(1) + static_cast<Duration>(i * i) * Seconds(7),
                               values[i]});
    }
    corpus.push_back(EncodeIrregularBatch(samples));
  }
  return corpus;
}

// Overwrites bytes [at, at + n) with random values (clamped to the input).
void Scribble(Pcg32& rng, std::vector<uint8_t>& bytes, size_t at, size_t n) {
  for (size_t i = at; i < at + n && i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(rng.NextU32());
  }
}

std::vector<uint8_t> Mutate(Pcg32& rng, const std::vector<uint8_t>& seed_bytes) {
  std::vector<uint8_t> bytes = seed_bytes;
  const auto below = [&](size_t bound) {
    return bound == 0 ? 0 : static_cast<size_t>(rng.NextU32() % bound);
  };
  switch (below(7)) {
    case 0:  // bit flips
      for (size_t n = 1 + below(8); n > 0 && !bytes.empty(); --n) {
        bytes[below(bytes.size())] ^= static_cast<uint8_t>(1u << below(8));
      }
      break;
    case 1:  // truncation
      bytes.resize(below(bytes.size() + 1));
      break;
    case 2:  // count lie: the varint right after the format byte
      Scribble(rng, bytes, 1, 1 + below(9));
      break;
    case 3:  // start / period lie
      Scribble(rng, bytes, 2 + below(8), 1 + below(9));
      break;
    case 4:  // format, kind or levels scribble
      if (!bytes.empty()) {
        const size_t header[] = {0, bytes.size() > 12 ? bytes.size() / 2 : 0};
        Scribble(rng, bytes, header[below(2)], 1 + below(3));
      }
      break;
    case 5: {  // splice: random trailing junk
      for (size_t extra = 1 + below(32); extra > 0; --extra) {
        bytes.push_back(static_cast<uint8_t>(rng.NextU32()));
      }
      break;
    }
    default:  // replace with pure garbage
      bytes.assign(below(64), 0);
      Scribble(rng, bytes, 0, bytes.size());
      break;
  }
  return bytes;
}

// What an accepted batch may claim: no more samples than the input has bits, and
// grid timestamps that ascend by a non-negative period.
void ExpectBacked(const std::vector<uint8_t>& bytes, const DecodedBatch& batch) {
  ASSERT_LE(batch.samples.size(), 8 * bytes.size());
  EXPECT_GE(batch.period, 0);
  for (size_t i = 1; i < batch.samples.size(); ++i) {
    EXPECT_GE(batch.samples[i].t, batch.samples[i - 1].t);
  }
}

TEST(WaveletFuzzTest, CorpusDecodes) {
  for (const std::vector<uint8_t>& bytes : BatchCorpus()) {
    auto batch = DecodeBatch(bytes);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    ExpectBacked(bytes, *batch);
  }
}

TEST(WaveletFuzzTest, DecodeBatchIsTotal) {
  const std::vector<std::vector<uint8_t>> corpus = BatchCorpus();
  Pcg32 rng(0x5eed0bad, /*stream=*/7);
  size_t accepted = 0;
  for (int i = 0; i < 300000; ++i) {
    const std::vector<uint8_t>& seed_bytes =
        corpus[static_cast<size_t>(rng.NextU32()) % corpus.size()];
    const std::vector<uint8_t> bytes = Mutate(rng, seed_bytes);
    auto batch = DecodeBatch(bytes);
    if (batch.ok()) {
      ++accepted;
      ExpectBacked(bytes, *batch);
    } else {
      EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument)
          << batch.status().message();
    }
  }
  // Both halves of the contract were exercised.
  EXPECT_GT(accepted, 5000u);
  EXPECT_LT(accepted, 290000u);
}

// Header fields for a hand-built batch; the payload after them is the caller's.
ByteWriter Header(BatchFormat format, uint64_t count, SimTime start, uint64_t period) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(format));
  w.WriteVarU64(count);
  w.WriteI64(start);
  w.WriteVarU64(period);
  return w;
}

void ExpectRejected(const std::vector<uint8_t>& bytes, const char* what) {
  auto batch = DecodeBatch(bytes);
  ASSERT_FALSE(batch.ok()) << what;
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument) << what;
}

TEST(WaveletFuzzTest, CountsBeyondThePayloadAreRejected) {
  ByteWriter raw = Header(BatchFormat::kRaw, uint64_t{1} << 40, 0, Seconds(31));
  raw.WriteF32(20.0f);
  ExpectRejected(raw.TakeBuffer(), "raw batch claiming 2^40 samples");

  ByteWriter irregular = Header(BatchFormat::kIrregular, uint64_t{1} << 40, 0, 0);
  irregular.WriteVarU64(1);
  irregular.WriteF32(20.0f);
  ExpectRejected(irregular.TakeBuffer(), "irregular batch claiming 2^40 samples");

  ByteWriter wavelet = Header(BatchFormat::kWavelet, uint64_t{1} << 34, 0, Seconds(31));
  wavelet.WriteU8(static_cast<uint8_t>(WaveletKind::kHaar));
  wavelet.WriteU8(0);
  wavelet.WriteF32(0.02f);
  const std::vector<uint8_t> bitmap(8, 0);
  wavelet.WriteBytes(bitmap);
  ExpectRejected(wavelet.TakeBuffer(), "wavelet batch claiming 2^34 samples");
}

TEST(WaveletFuzzTest, WaveletHeaderLiesAreRejected) {
  CodecParams params;
  auto valid = EncodeWaveletBatch(0, Seconds(31), Signal(16, 0.0), params);
  ASSERT_TRUE(valid.ok());
  // Kind and levels follow the common header.
  const size_t kind_at =
      Header(BatchFormat::kWavelet, 16, 0, Seconds(31)).buffer().size();
  std::vector<uint8_t> bad_kind = *valid;
  ASSERT_EQ(bad_kind[kind_at], static_cast<uint8_t>(WaveletKind::kHaar));
  bad_kind[kind_at] = 77;
  ExpectRejected(bad_kind, "wavelet kind 77");
  for (const uint8_t levels : {5, 63, 64, 200}) {
    std::vector<uint8_t> bad_levels = *valid;
    bad_levels[kind_at + 1] = levels;
    ExpectRejected(bad_levels, "more levels than a 16-sample batch has");
  }
}

TEST(WaveletFuzzTest, TimestampOverflowIsRejected) {
  ByteWriter raw = Header(BatchFormat::kRaw, 3, INT64_MAX - Seconds(1), Seconds(31));
  for (int i = 0; i < 3; ++i) {
    raw.WriteF32(20.0f);
  }
  ExpectRejected(raw.TakeBuffer(), "raw grid past INT64_MAX");

  ByteWriter negative = Header(BatchFormat::kRaw, 1, 0, uint64_t{1} << 63);
  negative.WriteF32(20.0f);
  ExpectRejected(negative.TakeBuffer(), "period that casts negative");

  ByteWriter irregular = Header(BatchFormat::kIrregular, 2, INT64_MAX - Seconds(1), 0);
  irregular.WriteVarU64(0);
  irregular.WriteF32(20.0f);
  irregular.WriteVarU64(2000);  // +2 s
  irregular.WriteF32(21.0f);
  ExpectRejected(irregular.TakeBuffer(), "irregular time sum past INT64_MAX");

  ByteWriter huge_delta = Header(BatchFormat::kIrregular, 1, 0, 0);
  huge_delta.WriteVarU64(UINT64_MAX);
  huge_delta.WriteF32(20.0f);
  ExpectRejected(huge_delta.TakeBuffer(), "irregular delta that overflows in ms");
}

}  // namespace
}  // namespace presto
