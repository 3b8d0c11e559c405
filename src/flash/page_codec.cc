#include "src/flash/page_codec.h"

#include <cstring>

#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/bytes.h"

namespace presto {
namespace {

// Length of the LEB128 varint ByteWriter::WriteVarU64 writes for `v`.
int VarintBytes(uint64_t v) {
  int bytes = 1;
  for (; v >= 0x80; v >>= 7) {
    ++bytes;
  }
  return bytes;
}

}  // namespace

uint16_t Fletcher16(span<const uint8_t> data) {
  uint32_t a = 0;
  uint32_t b = 0;
  for (uint8_t byte : data) {
    a = (a + byte) % 255;
    b = (b + a) % 255;
  }
  return static_cast<uint16_t>((b << 8) | a);
}

PageBuilder::PageBuilder(int page_size_bytes) : page_size_(page_size_bytes) {
  PRESTO_CHECK(page_size_ > kPageHeaderBytes + 16);
}

uint64_t PageBuilder::DeltaMs(SimTime t) const {
  return count_ == 0 ? 0 : static_cast<uint64_t>((t - last_ts_) / kMillisecond);
}

bool PageBuilder::Fits(SimTime t) const {
  return static_cast<int>(records_.size() + sizeof(float)) + VarintBytes(DeltaMs(t)) <=
         page_size_ - kPageHeaderBytes;
}

void PageBuilder::Add(SimTime t, double value) {
  PRESTO_CHECK_MSG(count_ == 0 || t >= last_ts_, "archive records must be time-ordered");
  PRESTO_CHECK_MSG(Fits(t), "record does not fit in page");
  uint64_t delta = DeltaMs(t);
  if (count_ == 0) {
    // Millisecond storage granularity: remember the rounded value so deltas line up.
    first_ts_ = (t / kMillisecond) * kMillisecond;
    last_ts_ = first_ts_;
  } else {
    last_ts_ += static_cast<Duration>(delta) * kMillisecond;
  }
  // The bytes of ByteWriter::WriteVarU64(delta) + WriteF32(value), appended in place.
  for (; delta >= 0x80; delta >>= 7) {
    records_.push_back(static_cast<uint8_t>(delta) | 0x80);
  }
  records_.push_back(static_cast<uint8_t>(delta));
  const float f = static_cast<float>(value);
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  for (int shift = 0; shift < 32; shift += 8) {
    records_.push_back(static_cast<uint8_t>(bits >> shift));
  }
  ++count_;
}

std::vector<uint8_t> PageBuilder::Seal(uint32_t seq, Duration resolution) {
  ByteWriter w;
  w.WriteU16(kPageMagic);
  w.WriteU32(seq);
  w.WriteU16(static_cast<uint16_t>(records_.size()));
  w.WriteU16(Fletcher16(records_));
  w.WriteI64(first_ts_);
  w.WriteI64(resolution);
  std::vector<uint8_t> page = w.TakeBuffer();
  PRESTO_CHECK(static_cast<int>(page.size()) == kPageHeaderBytes);
  page.insert(page.end(), records_.begin(), records_.end());
  page.resize(static_cast<size_t>(page_size_), 0xFF);

  records_.clear();
  count_ = 0;
  first_ts_ = 0;
  last_ts_ = 0;
  return page;
}

Result<DecodedPage> DecodePage(span<const uint8_t> page) {
  bool all_ff = true;
  for (uint8_t byte : page) {
    if (byte != 0xFF) {
      all_ff = false;
      break;
    }
  }
  if (all_ff) {
    return NotFoundError("page is blank");
  }

  ByteReader r(page);
  auto magic = r.ReadU16();
  if (!magic.ok() || *magic != kPageMagic) {
    return DataLossError("bad page magic");
  }
  DecodedPage out;
  auto seq = r.ReadU32();
  auto used = r.ReadU16();
  auto checksum = r.ReadU16();
  auto first_ts = r.ReadI64();
  auto resolution = r.ReadI64();
  if (!seq.ok() || !used.ok() || !checksum.ok() || !first_ts.ok() || !resolution.ok()) {
    return DataLossError("truncated page header");
  }
  out.header.seq = *seq;
  out.header.used = *used;
  out.header.checksum = *checksum;
  out.header.first_ts = *first_ts;
  out.header.resolution = *resolution;

  if (kPageHeaderBytes + out.header.used > static_cast<int>(page.size())) {
    return DataLossError("page used-length exceeds page size");
  }
  const span<const uint8_t> records =
      page.subspan(kPageHeaderBytes, out.header.used);
  if (Fletcher16(records) != out.header.checksum) {
    return DataLossError("page checksum mismatch (torn write?)");
  }

  ByteReader rec(records);
  SimTime t = out.header.first_ts;
  bool first = true;
  while (!rec.AtEnd()) {
    auto delta = rec.ReadVarU64();
    auto value = rec.ReadF32();
    if (!delta.ok() || !value.ok()) {
      return DataLossError("truncated record");
    }
    if (first) {
      first = false;
    } else {
      t += static_cast<Duration>(*delta) * kMillisecond;
    }
    out.samples.push_back(Sample{t, static_cast<double>(*value)});
  }
  return out;
}

}  // namespace presto

namespace presto {

template <typename Io>
void PageBuilder::CkptFields(Io& io) {
  io(records_, count_, first_ts_, last_ts_);
  CkptReject(io, records_.size() > static_cast<size_t>(page_size_),
             "page builder restore: records exceed page size");
}
PRESTO_CKPT_FIELDS(PageBuilder);

}  // namespace presto
