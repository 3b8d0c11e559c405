// Versioned checkpoint container + symmetric state codec.
//
// A Checkpoint is an ordered list of named byte sections, one per subsystem
// ("cell0/sim", "cell0/proxy/3", "fed", ...). Each section carries an FNV-1a checksum
// over its payload; Decode verifies every checksum before returning, so a corrupted
// file can never partially restore — the error names the first bad section. On top of
// full snapshots the container supports barrier-to-barrier diffs: EncodeDiffFrom emits
// only the sections whose bytes changed against a base checkpoint (plus removals), and
// ApplyDiff overlays them back, with the base's digest pinned in the diff header so a
// diff can never be applied to the wrong base.
//
// Every checkpointed type lists its fields once, in a template over the direction:
//
//   template <typename Io> void CkptFields(Io& io, Foo& v) { io(v.a, v.b); }
//   template <typename Io> void Bar::CkptFields(Io& io) { io(x_, y_); }
//
// CkptOut walks the list appending bytes, CkptIn walks it parsing them: varint
// integers (zigzag when signed), fixed-width floats (state must round-trip exactly —
// never re-quantize through the lossy wire formats), length-prefixed strings, and a
// count before every container. All reads are bounds-checked through ByteReader and
// the reader latches its first error, so a truncated section is a typed error, never
// UB. Readers accept only canonical bytes — bools 0/1, minimal varints, integers that
// fit their field, enums up to their CkptEnumMax, strictly ascending map keys — so a
// section that loads resaves byte-identically. State only the reader rebuilds
// (allocations, stale handles, derived indices) sits in the same list under
// `if constexpr (Io::kLoading)`. Changing any list changes the bytes: bump
// Checkpoint::kVersion with it.

#ifndef SRC_UTIL_CKPT_H_
#define SRC_UTIL_CKPT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/hash.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/sample.h"
#include "src/util/span.h"
#include "src/util/stats.h"

namespace presto {

// FNV-1a over raw bytes — the per-section checksum.
inline uint64_t CkptChecksum(span<const uint8_t> bytes) {
  uint64_t fp = kFnvOffsetBasis;
  for (const uint8_t b : bytes) {
    fp = (fp ^ b) * kFnvPrime;
  }
  return fp;
}

// ---------------------------------------------------------------------------
// Symmetric field codec. CkptOut appends, CkptIn parses; both walk the same
// field list, so `io(a, b, c)` is the whole codec of a three-field type.
// ---------------------------------------------------------------------------

// Field dispatch: scalars, strings and byte vectors inline; anything else
// through its public member `CkptFields(io)` or a free `CkptFields(io, v)` (ADL).
template <typename Io, typename T>
void CkptField(Io& io, T& v);

class CkptOut {
 public:
  static constexpr bool kLoading = false;

  explicit CkptOut(ByteWriter& w) : w_(w) {}

  // The writer never mutates: fields are taken by reference only so one list
  // serves both directions.
  template <typename... Ts>
  void operator()(const Ts&... vs) {
    (CkptField(*this, const_cast<Ts&>(vs)), ...);
  }

  void U8(uint8_t& v) { w_.WriteU8(v); }
  void Var(uint64_t& v) { w_.WriteVarU64(v); }
  void ZigZag(int64_t& v) { w_.WriteVarI64(v); }
  void Fixed64(uint64_t& v) { w_.WriteU64(v); }
  void F32(float& v) { w_.WriteF32(v); }
  void F64(double& v) { w_.WriteF64(v); }
  void Bytes(std::vector<uint8_t>& v) { w_.WriteBytes(span<const uint8_t>(v)); }
  void Str(std::string& v) { w_.WriteString(v); }
  void Count(uint64_t& n) { w_.WriteVarU64(n); }

  // Raw access for nested codecs that own their framing (models, bitmaps).
  ByteWriter& writer() { return w_; }

  // A save can refuse state that cannot cross a checkpoint (a pending closure).
  void Fail(Status s) {
    if (status_.ok()) {
      status_ = std::move(s);
    }
  }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  ByteWriter& w_;
  Status status_;
};

// Latches the first error: every later read is a no-op that leaves its field
// untouched, so field lists need no per-field checks.
class CkptIn {
 public:
  static constexpr bool kLoading = true;

  explicit CkptIn(ByteReader& r) : r_(r) {}

  template <typename... Ts>
  void operator()(Ts&... vs) {
    (CkptField(*this, vs), ...);
  }

  void U8(uint8_t& v) { Take(&ByteReader::ReadU8, v); }
  void Var(uint64_t& v) { Take(&ByteReader::ReadVarU64, v); }
  void ZigZag(int64_t& v) { Take(&ByteReader::ReadVarI64, v); }
  void Fixed64(uint64_t& v) { Take(&ByteReader::ReadU64, v); }
  void F32(float& v) { Take(&ByteReader::ReadF32, v); }
  void F64(double& v) { Take(&ByteReader::ReadF64, v); }
  void Bytes(std::vector<uint8_t>& v) { Take(&ByteReader::ReadBytes, v); }
  void Str(std::string& v) { Take(&ByteReader::ReadString, v); }
  // A container's element count. Every element costs at least one byte, so a
  // count above the remaining bytes is corrupt; on any error `n` reads as 0.
  void Count(uint64_t& n) {
    Var(n);
    if (ok() && n > r_.remaining()) {
      Fail(DataLossError("ckpt: count exceeds section bytes"));
    }
    if (!ok()) {
      n = 0;
    }
  }

  ByteReader& reader() { return r_; }

  void Fail(Status s) {
    if (status_.ok()) {
      status_ = std::move(s);
    }
  }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  template <typename T, typename U>
  void Take(Result<T> (ByteReader::*read)(), U& v) {
    if (!ok()) {
      return;
    }
    Result<T> got = (r_.*read)();
    if (got.ok()) {
      v = std::move(*got);
    } else {
      Fail(got.status());
    }
  }

  ByteReader& r_;
  Status status_;
};

// Canonical-bytes rejection: a reader accepts only what the writer produces,
// so a section that loads resaves byte-identically.
template <typename Io>
void CkptReject(Io& io, bool bad, const char* what) {
  if constexpr (Io::kLoading) {
    if (bad && io.ok()) {
      io.Fail(DataLossError(what));
    }
  }
}

// A shape the restoring side already has (table sizes, ids, configuration):
// written as a field, and on read compared against `want` instead of stored.
template <typename Io, typename T>
void CkptExpect(Io& io, const T& want, StatusCode code, const char* what) {
  T got = want;
  io(got);
  if constexpr (Io::kLoading) {
    if (io.ok() && !(got == want)) {
      io.Fail(Status(code, what));
    }
  }
}

// Counted sequence (vector, deque): the element count, then each element. On
// read the container is cleared and refilled.
template <typename Io, typename C>
void CkptSeq(Io& io, C& c) {
  using T = typename C::value_type;
  uint64_t n = c.size();
  io.Count(n);
  if constexpr (Io::kLoading) {
    c.clear();
    if constexpr (std::is_same_v<C, std::vector<T>>) {
      c.reserve(static_cast<size_t>(n));
    }
    for (uint64_t i = 0; i < n && io.ok(); ++i) {
      T item{};
      io(item);
      c.push_back(std::move(item));
    }
  } else {
    for (const T& item : c) {
      io(item);
    }
  }
}

// Counted map: `each(key, value)` codes one entry. Keys must arrive strictly
// ascending — the writer's iteration order — so duplicates and reorders are
// refused rather than silently merged or re-sorted.
template <typename Io, typename K, typename V, typename Fn>
void CkptMapSeq(Io& io, std::map<K, V>& m, Fn&& each) {
  uint64_t n = m.size();
  io.Count(n);
  if constexpr (Io::kLoading) {
    m.clear();
    for (uint64_t i = 0; i < n && io.ok(); ++i) {
      K key{};
      V value{};
      each(key, value);
      CkptReject(io, !m.empty() && !(m.rbegin()->first < key),
                 "ckpt: map keys not strictly ascending");
      m.emplace_hint(m.end(), std::move(key), std::move(value));
    }
  } else {
    for (auto& [key, value] : m) {
      each(const_cast<K&>(key), value);
    }
  }
}

template <typename Io, typename T>
void CkptFields(Io& io, std::vector<T>& v) {
  CkptSeq(io, v);
}

template <typename Io, typename T>
void CkptFields(Io& io, std::deque<T>& v) {
  CkptSeq(io, v);
}

template <typename Io, typename T, size_t N>
void CkptFields(Io& io, std::array<T, N>& v) {
  for (T& item : v) {
    io(item);
  }
}

template <typename Io, typename K, typename V>
void CkptFields(Io& io, std::map<K, V>& v) {
  CkptMapSeq(io, v, [&io](K& key, V& value) { io(key, value); });
}

template <typename Io, typename A, typename B>
void CkptFields(Io& io, std::pair<A, B>& v) {
  io(v.first, v.second);
}

template <typename Io>
void CkptFields(Io& io, Sample& s) {
  io(s.t, s.value);
}

template <typename Io>
void CkptFields(Io& io, TimeInterval& v) {
  io(v.start, v.end);
}

// Status round-trips by (code, message).
constexpr uint64_t CkptEnumMax(StatusCode) {
  return static_cast<uint64_t>(StatusCode::kInternal);
}
template <typename Io>
void CkptFields(Io& io, Status& v) {
  StatusCode code = v.code();
  std::string message = v.message();
  io(code, message);
  if constexpr (Io::kLoading) {
    v = Status(code, std::move(message));
  }
}

// Exact generator state (PCG state + increment + the Box-Muller cache).
template <typename Io>
void CkptFields(Io& io, Pcg32& rng) {
  Pcg32::State s = rng.SaveState();
  io.Fixed64(s.state);
  io.Fixed64(s.inc);
  io(s.has_cached_gaussian, s.cached_gaussian);
  if constexpr (Io::kLoading) {
    rng.LoadState(s);
  }
}

// Exact raw samples; the lazily-sorted order is presentation state, not data.
template <typename Io>
void CkptFields(Io& io, SampleSet& s) {
  if constexpr (Io::kLoading) {
    std::vector<double> samples;
    io(samples);
    s.Assign(std::move(samples));
  } else {
    io(s.samples());
  }
}

template <typename Io, typename T, typename = void>
struct CkptHasMemberFields : std::false_type {};
template <typename Io, typename T>
struct CkptHasMemberFields<
    Io, T, std::void_t<decltype(std::declval<T&>().CkptFields(std::declval<Io&>()))>>
    : std::true_type {};

template <typename Io, typename T>
void CkptField(Io& io, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    uint8_t byte = v ? 1 : 0;
    io.U8(byte);
    CkptReject(io, byte > 1, "ckpt: bool byte is not 0/1");
    v = byte == 1;
  } else if constexpr (std::is_enum_v<T>) {
    // Every checkpointed enum declares its largest value (CkptEnumMax, by ADL).
    uint64_t raw = static_cast<uint64_t>(static_cast<std::underlying_type_t<T>>(v));
    io.Var(raw);
    CkptReject(io, raw > CkptEnumMax(T{}), "ckpt: enum value out of range");
    if (io.ok()) {
      v = static_cast<T>(static_cast<std::underlying_type_t<T>>(raw));
    }
  } else if constexpr (std::is_integral_v<T> && std::is_unsigned_v<T>) {
    uint64_t raw = v;
    io.Var(raw);
    if constexpr (sizeof(T) < sizeof(uint64_t)) {
      CkptReject(io, raw > std::numeric_limits<T>::max(), "ckpt: integer out of range");
    }
    if (io.ok()) {
      v = static_cast<T>(raw);
    }
  } else if constexpr (std::is_integral_v<T>) {
    int64_t raw = v;
    io.ZigZag(raw);
    if constexpr (sizeof(T) < sizeof(int64_t)) {
      constexpr int64_t kMin = std::numeric_limits<T>::min();
      constexpr int64_t kMax = std::numeric_limits<T>::max();
      CkptReject(io, raw < kMin || raw > kMax, "ckpt: integer out of range");
    }
    if (io.ok()) {
      v = static_cast<T>(raw);
    }
  } else if constexpr (std::is_same_v<T, float>) {
    io.F32(v);
  } else if constexpr (std::is_same_v<T, double>) {
    io.F64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    io.Str(v);
  } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
    io.Bytes(v);
  } else if constexpr (CkptHasMemberFields<Io, T>::value) {
    v.CkptFields(io);
  } else {
    CkptFields(io, v);
  }
}

// Free codec entry points: any type with a field list. CkptSave reports a
// list that refused to save; CkptWrite is for lists that cannot.
template <typename T>
Status CkptSave(ByteWriter& w, const T& v) {
  CkptOut io(w);
  io(v);
  return io.status();
}
template <typename T>
void CkptWrite(ByteWriter& w, const T& v) {
  CkptOut io(w);
  io(v);
}
template <typename T>
Status CkptRead(ByteReader& r, T& v) {
  CkptIn io(r);
  io(v);
  return io.status();
}

// Instantiates a member field list defined in a .cc file for both directions,
// so other types' lists can nest it.
#define PRESTO_CKPT_FIELDS(Type)                     \
  template void Type::CkptFields<CkptOut>(CkptOut&); \
  template void Type::CkptFields<CkptIn>(CkptIn&)

// Encodes `vs` as one payload (frame arguments, replies).
template <typename... Ts>
std::vector<uint8_t> CkptWriteAll(const Ts&... vs) {
  ByteWriter w;
  CkptOut io(w);
  io(vs...);
  return w.TakeBuffer();
}

// Reads `vs` and requires the payload to end exactly there.
template <typename... Ts>
Status CkptReadAll(span<const uint8_t> bytes, Ts&... vs) {
  ByteReader r(bytes);
  CkptIn io(r);
  io(vs...);
  if (io.ok() && r.remaining() != 0) {
    return DataLossError("ckpt: trailing bytes after payload");
  }
  return io.status();
}

// ---------------------------------------------------------------------------
// Checkpoint container.
// ---------------------------------------------------------------------------

class Checkpoint {
 public:
  struct Section {
    std::string name;
    std::vector<uint8_t> payload;
  };

  // Current (and only) on-disk format version. Decode rejects other versions: the
  // compat rule is "same version or re-simulate" — checkpoints are replay artifacts,
  // not archival data, so no cross-version migration is attempted. v2: the
  // federation "fed" section moved to the process-seam layout (per-cell FedCell
  // blobs under "cell<i>/fed", payload-carrying trunk mail, cell-down bitmap). v3:
  // the "sim" section lost the lookahead fields (epoch cap, lookahead, grid anchor).
  static constexpr uint32_t kVersion = 3;

  // Appends (or replaces) a named section.
  void Add(const std::string& name, std::vector<uint8_t> payload);

  // The section payload, or nullptr when absent.
  const std::vector<uint8_t>* Find(const std::string& name) const;

  const std::vector<Section>& sections() const { return sections_; }

  // Order-sensitive digest over every (name, checksum) — identifies a checkpoint for
  // diff base pinning and quick equality checks.
  uint64_t Digest() const;

  // Full snapshot framing: "PCK1" magic, version, section table with per-section
  // FNV checksums.
  std::vector<uint8_t> Encode() const;

  // Parses and verifies a full snapshot. Every section checksum is checked before any
  // state is handed back — a corrupted section fails the whole decode with its name.
  static Result<Checkpoint> Decode(span<const uint8_t> data);

  // Diff framing: "PCKD" magic, base digest, removed section names, changed/added
  // sections. Applying the result to `base` reproduces *this exactly.
  std::vector<uint8_t> EncodeDiffFrom(const Checkpoint& base) const;

  // Overlays a diff onto its base (digest-checked), returning the target checkpoint.
  static Result<Checkpoint> ApplyDiff(const Checkpoint& base, span<const uint8_t> diff);

  // Section names whose payloads differ (or that exist on only one side), in this
  // checkpoint's section order followed by sections only `other` has. The first entry
  // is the first divergent subsystem in save order — the bisect starting point.
  std::vector<std::string> DivergentSections(const Checkpoint& other) const;

  Status WriteFile(const std::string& path) const;
  static Result<Checkpoint> ReadFile(const std::string& path);

 private:
  std::vector<Section> sections_;
  std::map<std::string, size_t> index_;
};

// Named-section walkers: `book(name, [&](auto& io) { ... })` codes one section,
// so a subsystem lists its sections once for save and restore alike.
class CkptSectionsOut {
 public:
  explicit CkptSectionsOut(std::string prefix) : prefix_(std::move(prefix)) {}

  template <typename Fn>
  void operator()(const std::string& name, Fn&& fields) {
    if (!status_.ok()) {
      return;
    }
    ByteWriter w;
    CkptOut io(w);
    fields(io);
    status_ = io.status();
    staged_.Add(prefix_ + name, w.TakeBuffer());
  }

  // Nothing partial on failure: sections land in `out` only once every one
  // serialized cleanly.
  Status Commit(Checkpoint* out) const {
    if (status_.ok()) {
      for (const Checkpoint::Section& section : staged_.sections()) {
        out->Add(section.name, section.payload);
      }
    }
    return status_;
  }

 private:
  std::string prefix_;
  Checkpoint staged_;
  Status status_;
};

class CkptSectionsIn {
 public:
  CkptSectionsIn(const Checkpoint& ckpt, std::string prefix)
      : ckpt_(ckpt), prefix_(std::move(prefix)) {}

  // A missing section is kNotFound; leftover bytes after the fields are data loss.
  template <typename Fn>
  void operator()(const std::string& name, Fn&& fields) {
    if (!status_.ok()) {
      return;
    }
    const std::vector<uint8_t>* payload = ckpt_.Find(prefix_ + name);
    if (payload == nullptr) {
      status_ = NotFoundError("checkpoint missing section " + prefix_ + name);
      return;
    }
    ByteReader r{span<const uint8_t>(*payload)};
    CkptIn io(r);
    fields(io);
    status_ = io.status();
    if (status_.ok() && r.remaining() != 0) {
      status_ = DataLossError("checkpoint section " + prefix_ + name +
                              " has trailing bytes");
    }
  }

  const Status& status() const { return status_; }

 private:
  const Checkpoint& ckpt_;
  std::string prefix_;
  Status status_;
};

}  // namespace presto

#endif  // SRC_UTIL_CKPT_H_
