// Tests for the flash device model, the on-flash page codec, and the archival store
// (time index, mount/recovery, graceful aging).

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/flash/archive_store.h"
#include "src/flash/flash_device.h"
#include "src/flash/page_codec.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace presto {
namespace {

FlashParams SmallFlash() {
  FlashParams p;
  p.page_size_bytes = 256;
  p.pages_per_block = 4;
  p.num_blocks = 16;  // 16 KiB total
  return p;
}

// ---------- FlashDevice ----------

TEST(FlashDeviceTest, WriteThenRead) {
  FlashDevice dev(SmallFlash(), nullptr);
  std::vector<uint8_t> page(256, 0x5A);
  ASSERT_TRUE(dev.WritePage(3, page).ok());
  std::vector<uint8_t> out(256);
  ASSERT_TRUE(dev.ReadPage(3, out).ok());
  EXPECT_EQ(out, page);
}

TEST(FlashDeviceTest, RewriteWithoutEraseFails) {
  FlashDevice dev(SmallFlash(), nullptr);
  std::vector<uint8_t> page(256, 1);
  ASSERT_TRUE(dev.WritePage(0, page).ok());
  EXPECT_EQ(dev.WritePage(0, page).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_TRUE(dev.WritePage(0, page).ok());
}

TEST(FlashDeviceTest, EraseResetsToFf) {
  FlashDevice dev(SmallFlash(), nullptr);
  std::vector<uint8_t> page(256, 0x00);
  ASSERT_TRUE(dev.WritePage(0, page).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  std::vector<uint8_t> out(256);
  ASSERT_TRUE(dev.ReadPage(0, out).ok());
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](uint8_t b) { return b == 0xFF; }));
  EXPECT_FALSE(dev.IsPageWritten(0));
}

TEST(FlashDeviceTest, WearTracksErases) {
  FlashDevice dev(SmallFlash(), nullptr);
  EXPECT_EQ(dev.BlockWear(2), 0u);
  ASSERT_TRUE(dev.EraseBlock(2).ok());
  ASSERT_TRUE(dev.EraseBlock(2).ok());
  EXPECT_EQ(dev.BlockWear(2), 2u);
}

TEST(FlashDeviceTest, BoundsChecked) {
  FlashDevice dev(SmallFlash(), nullptr);
  std::vector<uint8_t> page(256);
  EXPECT_EQ(dev.ReadPage(-1, page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.ReadPage(64, page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.EraseBlock(16).code(), StatusCode::kOutOfRange);
  std::vector<uint8_t> wrong(100);
  EXPECT_EQ(dev.WritePage(0, wrong).code(), StatusCode::kInvalidArgument);
}

TEST(FlashDeviceTest, EnergyCharged) {
  EnergyMeter meter;
  FlashDevice dev(SmallFlash(), &meter);
  std::vector<uint8_t> page(256, 7);
  ASSERT_TRUE(dev.WritePage(0, page).ok());
  ASSERT_TRUE(dev.ReadPage(0, page).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_GT(meter.Component(EnergyComponent::kFlashWrite), 0.0);
  EXPECT_GT(meter.Component(EnergyComponent::kFlashRead), 0.0);
  EXPECT_GT(meter.Component(EnergyComponent::kFlashErase), 0.0);
  EXPECT_EQ(dev.stats().page_writes, 1u);
}

// ---------- page codec ----------

TEST(PageCodecTest, RoundTrip) {
  PageBuilder builder(256);
  std::vector<Sample> in;
  SimTime t = Hours(5);
  for (int i = 0; i < 20; ++i) {
    in.push_back(Sample{t, 20.0 + i});
    ASSERT_TRUE(builder.Fits(t));
    builder.Add(t, in.back().value);
    t += Seconds(31);
  }
  const std::vector<uint8_t> page = builder.Seal(/*seq=*/9, /*resolution=*/Seconds(31));
  ASSERT_EQ(page.size(), 256u);

  auto decoded = DecodePage(page);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.seq, 9u);
  EXPECT_EQ(decoded->header.resolution, Seconds(31));
  ASSERT_EQ(decoded->samples.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(decoded->samples[i].t, in[i].t) << i;
    EXPECT_NEAR(decoded->samples[i].value, in[i].value, 1e-4) << i;
  }
}

TEST(PageCodecTest, BlankPageIsNotFound) {
  std::vector<uint8_t> blank(256, 0xFF);
  EXPECT_EQ(DecodePage(blank).status().code(), StatusCode::kNotFound);
}

TEST(PageCodecTest, CorruptionDetected) {
  PageBuilder builder(256);
  builder.Add(Seconds(1), 1.0);
  std::vector<uint8_t> page = builder.Seal(1, Seconds(31));
  // Flip bits inside the record area. (0x55, not 0xFF: Fletcher-16 works mod 255, so a
  // 0x00 -> 0xFF flip would alias — a known limitation of the checksum family.)
  page[kPageHeaderBytes + 1] ^= 0x55;
  EXPECT_EQ(DecodePage(page).status().code(), StatusCode::kDataLoss);
}

TEST(PageCodecTest, PaddingCorruptionIsHarmless) {
  // Bit rot in the unused tail does not affect the checksummed record area.
  PageBuilder builder(256);
  builder.Add(Seconds(1), 1.0);
  std::vector<uint8_t> page = builder.Seal(1, Seconds(31));
  page[200] ^= 0xFF;
  EXPECT_TRUE(DecodePage(page).ok());
}

// Reference encoding of a page through ByteWriter, record by record: varint
// milliseconds since the previous record (0 for the first), then the float32 value.
class ReferencePage {
 public:
  explicit ReferencePage(int page_size) : page_size_(page_size) {}

  std::vector<uint8_t> Record(SimTime t, double value) const {
    ByteWriter w;
    const int64_t delta_ms = records_.empty() ? 0 : (t - last_ts_) / kMillisecond;
    w.WriteVarU64(static_cast<uint64_t>(delta_ms));
    w.WriteF32(static_cast<float>(value));
    return w.TakeBuffer();
  }

  bool Fits(SimTime t, double value) const {
    return static_cast<int>(records_.size() + Record(t, value).size()) <=
           page_size_ - kPageHeaderBytes;
  }

  void Add(SimTime t, double value) {
    const std::vector<uint8_t> rec = Record(t, value);
    if (records_.empty()) {
      first_ts_ = (t / kMillisecond) * kMillisecond;
      last_ts_ = first_ts_;
    } else {
      last_ts_ += (t - last_ts_) / kMillisecond * kMillisecond;
    }
    records_.insert(records_.end(), rec.begin(), rec.end());
  }

  std::vector<uint8_t> Seal(uint32_t seq, Duration resolution) const {
    ByteWriter w;
    w.WriteU16(kPageMagic);
    w.WriteU32(seq);
    w.WriteU16(static_cast<uint16_t>(records_.size()));
    w.WriteU16(Fletcher16(records_));
    w.WriteI64(first_ts_);
    w.WriteI64(resolution);
    std::vector<uint8_t> page = w.TakeBuffer();
    page.insert(page.end(), records_.begin(), records_.end());
    page.resize(static_cast<size_t>(page_size_), 0xFF);
    return page;
  }

 private:
  int page_size_;
  std::vector<uint8_t> records_;
  SimTime first_ts_ = 0;
  SimTime last_ts_ = 0;
};

TEST(PageCodecTest, RecordsMatchReferenceEncodingAtVarintAndPageBoundaries) {
  // Deltas straddle each varint length change (1|2 bytes at 128 ms, 2|3 at 16384 ms,
  // 3|4 at 2^21 ms); the sub-millisecond offsets exercise the delta rounding. Sweeping
  // the page size makes every record length land exactly on the page-full boundary.
  const Duration kDeltas[] = {0, 127 * kMillisecond, 128 * kMillisecond,
                              16383 * kMillisecond + 999, 16384 * kMillisecond,
                              (int64_t{1} << 21) * kMillisecond, Seconds(31) + 500};
  for (int page_size = kPageHeaderBytes + 17; page_size <= kPageHeaderBytes + 64;
       ++page_size) {
    PageBuilder builder(page_size);
    ReferencePage reference(page_size);
    SimTime t = Hours(5) + 345;
    for (int i = 0;; ++i) {
      const double value = 20.0 + 0.37 * i;
      ASSERT_EQ(builder.Fits(t), reference.Fits(t, value))
          << "page_size=" << page_size << " record=" << i;
      if (!reference.Fits(t, value)) {
        break;
      }
      builder.Add(t, value);
      reference.Add(t, value);
      t += kDeltas[static_cast<size_t>(i) % std::size(kDeltas)];
    }
    ASSERT_GT(builder.count(), 0);
    EXPECT_EQ(builder.Seal(7, Seconds(31)), reference.Seal(7, Seconds(31)))
        << "page_size=" << page_size;
  }
}

class PageCodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageCodecPropertyTest, RandomBatchesRoundTrip) {
  Pcg32 rng(GetParam());
  PageBuilder builder(512);
  std::vector<Sample> in;
  SimTime t = static_cast<SimTime>(rng.UniformInt(0, Days(300)));
  t = (t / kMillisecond) * kMillisecond;
  while (true) {
    const double v = rng.Gaussian(20, 30);
    if (!builder.Fits(t)) {
      break;
    }
    builder.Add(t, v);
    in.push_back(Sample{t, v});
    t += (rng.UniformInt(1, 90) * kSecond / 1) + rng.UniformInt(0, 999) * kMillisecond;
  }
  auto decoded = DecodePage(builder.Seal(1, 0));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->samples.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(decoded->samples[i].t, in[i].t);
    EXPECT_NEAR(decoded->samples[i].value, in[i].value,
                std::abs(in[i].value) * 1e-6 + 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCodecPropertyTest, ::testing::Range<uint64_t>(1, 9));

// ---------- ArchiveStore ----------

ArchiveParams TestArchiveParams() {
  ArchiveParams p;
  p.nominal_sample_period = Seconds(31);
  return p;
}

std::vector<Sample> MakeSeries(int n, SimTime start = 0, Duration step = Seconds(31)) {
  std::vector<Sample> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Sample{start + i * step, 20.0 + 0.01 * i});
  }
  return out;
}

TEST(ArchiveStoreTest, AppendFlushQuery) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  const std::vector<Sample> series = MakeSeries(100);
  for (const Sample& s : series) {
    ASSERT_TRUE(store.Append(s).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  auto all = store.Query(TimeInterval{0, Days(1)});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ((*all)[i].t, series[i].t);
    EXPECT_NEAR((*all)[i].value, series[i].value, 1e-4);
  }
}

TEST(ArchiveStoreTest, RangeQueriesUseTimeIndex) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  const std::vector<Sample> series = MakeSeries(200);
  for (const Sample& s : series) {
    ASSERT_TRUE(store.Append(s).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  const uint64_t reads_before = dev.stats().page_reads;
  const TimeInterval range{series[50].t, series[60].t + 1};
  auto out = store.Query(range);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 11u);
  // The index should touch only a couple of pages, not the whole archive.
  EXPECT_LE(dev.stats().page_reads - reads_before, 4u);
}

TEST(ArchiveStoreTest, OutOfOrderAppendRejected) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  ASSERT_TRUE(store.Append(Sample{Seconds(100), 1.0}).ok());
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.Append(Sample{Seconds(50), 2.0}).code(), StatusCode::kInvalidArgument);
}

TEST(ArchiveStoreTest, MountRebuildsState) {
  FlashDevice dev(SmallFlash(), nullptr);
  const std::vector<Sample> series = MakeSeries(150);
  {
    ArchiveStore store(&dev, TestArchiveParams());
    for (const Sample& s : series) {
      ASSERT_TRUE(store.Append(s).ok());
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  // "Reboot": a fresh store over the same device.
  ArchiveStore store(&dev, TestArchiveParams());
  ASSERT_TRUE(store.Mount().ok());
  auto all = store.Query(TimeInterval{0, Days(1)});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), series.size());
  // Appending continues after the last record.
  EXPECT_TRUE(store.Append(Sample{series.back().t + Seconds(31), 9.0}).ok());
}

TEST(ArchiveStoreTest, MountSkipsTornPage) {
  FlashDevice dev(SmallFlash(), nullptr);
  const std::vector<Sample> series = MakeSeries(150);
  {
    ArchiveStore store(&dev, TestArchiveParams());
    for (const Sample& s : series) {
      ASSERT_TRUE(store.Append(s).ok());
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  dev.CorruptPageForTest(2);  // torn write in block 0
  ArchiveStore store(&dev, TestArchiveParams());
  ASSERT_TRUE(store.Mount().ok());
  EXPECT_GE(store.stats().pages_skipped, 1u);
  auto all = store.Query(TimeInterval{0, Days(1)});
  ASSERT_TRUE(all.ok());
  // Some data lost, but the store is consistent and most data survives.
  EXPECT_GT(all->size(), series.size() / 2);
  EXPECT_LT(all->size(), series.size());
}

TEST(ArchiveStoreTest, AgingKeepsOldDataQueryableAtCoarserResolution) {
  FlashDevice dev(SmallFlash(), nullptr);  // 16 KiB: fills quickly
  ArchiveParams params = TestArchiveParams();
  ArchiveStore store(&dev, params);
  // ~28 records/page * 4 pages/block * 16 blocks ~ 1800 records capacity; write 4x.
  const std::vector<Sample> series = MakeSeries(7000);
  for (const Sample& s : series) {
    ASSERT_TRUE(store.Append(s).ok()) << "at " << s.t;
  }
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(store.stats().aging_passes, 0u);

  auto range = store.RetainedRange();
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->start, series.front().t);  // oldest data still represented

  // Old region: present but coarse.
  auto old_res = store.ResolutionAt(series[100].t);
  ASSERT_TRUE(old_res.ok());
  EXPECT_GT(*old_res, params.nominal_sample_period);
  auto old_data = store.Query(TimeInterval{0, series[400].t});
  ASSERT_TRUE(old_data.ok());
  EXPECT_FALSE(old_data->empty());
  EXPECT_LT(old_data->size(), 400u);

  // Recent region: full resolution.
  auto new_res = store.ResolutionAt(series[6900].t);
  ASSERT_TRUE(new_res.ok());
  EXPECT_EQ(*new_res, params.nominal_sample_period);
}

TEST(ArchiveStoreTest, AgedValuesApproximateWindowMeans) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  const std::vector<Sample> series = MakeSeries(7000);
  for (const Sample& s : series) {
    ASSERT_TRUE(store.Append(s).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  auto old_data = store.Query(TimeInterval{0, series[1000].t});
  ASSERT_TRUE(old_data.ok());
  ASSERT_FALSE(old_data->empty());
  // The series is linear (~20 + 0.01 i), so an aged sample (a window mean, stamped at
  // the window start) sits ~half a window above the line. The window size is the
  // sample's current resolution.
  for (const Sample& s : *old_data) {
    const double i = static_cast<double>(s.t) / Seconds(31);
    auto resolution = store.ResolutionAt(s.t);
    ASSERT_TRUE(resolution.ok());
    const double window = static_cast<double>(*resolution) / Seconds(31);
    EXPECT_NEAR(s.value, 20.0 + 0.01 * (i + (window - 1) / 2.0), 0.02 + 0.005 * window)
        << "t=" << s.t;
  }
}

TEST(ArchiveStoreTest, FullWithoutAgingRejects) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveParams params = TestArchiveParams();
  params.aging_enabled = false;
  ArchiveStore store(&dev, params);
  Status status = OkStatus();
  int appended = 0;
  for (const Sample& s : MakeSeries(7000)) {
    status = store.Append(s);
    if (!status.ok()) {
      break;
    }
    ++appended;
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(appended, 1000);
  EXPECT_GT(store.stats().appends_rejected, 0u);
}

TEST(ArchiveStoreTest, EmptyQueriesAndRanges) {
  FlashDevice dev(SmallFlash(), nullptr);
  ArchiveStore store(&dev, TestArchiveParams());
  EXPECT_EQ(store.RetainedRange().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Query(TimeInterval{10, 5}).status().code(),
            StatusCode::kInvalidArgument);
  auto empty = store.Query(TimeInterval{0, 100});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(store.ResolutionAt(5).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace presto
