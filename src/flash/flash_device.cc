#include "src/flash/flash_device.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

FlashDevice::FlashDevice(const FlashParams& params, EnergyMeter* meter)
    : params_(params), meter_(meter) {
  PRESTO_CHECK(params_.page_size_bytes > 0);
  PRESTO_CHECK(params_.pages_per_block > 0);
  PRESTO_CHECK(params_.num_blocks > 0);
  data_.assign(static_cast<size_t>(params_.CapacityBytes()), 0xFF);
  written_.assign(static_cast<size_t>(params_.TotalPages()), false);
  wear_.assign(static_cast<size_t>(params_.num_blocks), 0);
}

void FlashDevice::Charge(EnergyComponent c, double joules, Duration latency) {
  if (meter_ != nullptr) {
    meter_->Charge(c, joules);
  }
  stats_.busy_time += latency;
}

Status FlashDevice::ReadPage(int page, span<uint8_t> out) {
  if (!ValidPage(page)) {
    return OutOfRangeError("flash: page out of range");
  }
  if (out.size() != static_cast<size_t>(params_.page_size_bytes)) {
    return InvalidArgumentError("flash: read buffer must be one page");
  }
  const size_t offset = static_cast<size_t>(page) * params_.page_size_bytes;
  std::copy_n(data_.begin() + static_cast<ptrdiff_t>(offset), params_.page_size_bytes,
              out.begin());
  ++stats_.page_reads;
  Charge(EnergyComponent::kFlashRead, params_.read_page_energy_j,
         params_.read_page_latency);
  return OkStatus();
}

Status FlashDevice::WritePage(int page, span<const uint8_t> data) {
  if (!ValidPage(page)) {
    return OutOfRangeError("flash: page out of range");
  }
  if (data.size() != static_cast<size_t>(params_.page_size_bytes)) {
    return InvalidArgumentError("flash: write buffer must be one page");
  }
  if (written_[static_cast<size_t>(page)]) {
    return FailedPreconditionError("flash: page not erased");
  }
  const size_t offset = static_cast<size_t>(page) * params_.page_size_bytes;
  std::copy(data.begin(), data.end(), data_.begin() + static_cast<ptrdiff_t>(offset));
  written_[static_cast<size_t>(page)] = true;
  ++stats_.page_writes;
  Charge(EnergyComponent::kFlashWrite, params_.write_page_energy_j,
         params_.write_page_latency);
  return OkStatus();
}

Status FlashDevice::EraseBlock(int block) {
  if (!ValidBlock(block)) {
    return OutOfRangeError("flash: block out of range");
  }
  const int first = block * params_.pages_per_block;
  for (int p = first; p < first + params_.pages_per_block; ++p) {
    written_[static_cast<size_t>(p)] = false;
  }
  const size_t offset = static_cast<size_t>(first) * params_.page_size_bytes;
  const size_t len =
      static_cast<size_t>(params_.pages_per_block) * params_.page_size_bytes;
  std::fill_n(data_.begin() + static_cast<ptrdiff_t>(offset), len, 0xFF);
  ++wear_[static_cast<size_t>(block)];
  ++stats_.block_erases;
  Charge(EnergyComponent::kFlashErase, params_.erase_block_energy_j,
         params_.erase_block_latency);
  return OkStatus();
}

bool FlashDevice::IsPageWritten(int page) const {
  PRESTO_CHECK(ValidPage(page));
  return written_[static_cast<size_t>(page)];
}

uint32_t FlashDevice::BlockWear(int block) const {
  PRESTO_CHECK(ValidBlock(block));
  return wear_[static_cast<size_t>(block)];
}

void FlashDevice::CorruptPageForTest(int page) {
  PRESTO_CHECK(ValidPage(page));
  const size_t offset = static_cast<size_t>(page) * params_.page_size_bytes;
  for (int i = 0; i < params_.page_size_bytes; ++i) {
    data_[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(0xA5 ^ i);
  }
  written_[static_cast<size_t>(page)] = true;
}

}  // namespace presto

namespace presto {

template <typename Io>
void FlashDevice::CkptFields(Io& io) {
  const size_t page_size = static_cast<size_t>(params_.page_size_bytes);
  // Media contents as (page index, image), written pages only and ascending —
  // erased pages are implied 0xFF.
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> pages;
  if constexpr (!Io::kLoading) {
    for (size_t p = 0; p < written_.size(); ++p) {
      if (written_[p]) {
        const uint8_t* image = data_.data() + p * page_size;
        pages.emplace_back(p, std::vector<uint8_t>(image, image + page_size));
      }
    }
  }
  io(pages, wear_, stats_.page_reads, stats_.page_writes, stats_.block_erases,
     stats_.busy_time);
  if constexpr (Io::kLoading) {
    CkptReject(io, wear_.size() != static_cast<size_t>(params_.num_blocks),
               "flash restore: wear table size mismatch");
    std::fill(data_.begin(), data_.end(), 0xFF);
    written_.assign(static_cast<size_t>(params_.TotalPages()), false);
    uint64_t next = 0;
    for (const auto& [page, image] : pages) {
      CkptReject(io, page < next || page >= written_.size() || image.size() != page_size,
                 "flash restore: page record out of order, range or size");
      if (!io.ok()) {
        return;
      }
      std::copy(image.begin(), image.end(),
                data_.begin() + static_cast<ptrdiff_t>(page * page_size));
      written_[static_cast<size_t>(page)] = true;
      next = page + 1;
    }
  }
}
PRESTO_CKPT_FIELDS(FlashDevice);

void FlashDevice::SaveState(ByteWriter& w) const { CkptWrite(w, *this); }
Status FlashDevice::LoadState(ByteReader& r) { return CkptRead(r, *this); }

}  // namespace presto
