// State serialization for the recovery subsystem.
//
// The paper treats an Aggregate's state as an explicit value — window
// instances Γ(WA, WS, S, f_K, L) plus watermark bookkeeping — which makes
// it snapshotable by construction. This header provides the byte-level
// machinery: a length-checked writer/reader pair and a `StateCodec<T>`
// customization point so templated operators can serialize arbitrary
// payload types. Trivially copyable payloads work out of the box; richer
// types (std::string, std::vector, std::pair, Tuple, the aggbased
// envelopes) get dedicated codecs.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace aggspes {

/// Thrown when a snapshot is truncated or structurally invalid.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

/// Appends raw bytes to a growing buffer. All multi-byte values use the
/// host byte order: snapshots restore on the machine that took them (the
/// store is in-memory), so no cross-endian concern arises.
class SnapshotWriter {
 public:
  using Bytes = std::vector<std::uint8_t>;

  void write_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_pod(const T& v) {
    write_raw(&v, sizeof(T));
  }

  void write_u64(std::uint64_t v) { write_pod(v); }
  void write_i64(std::int64_t v) { write_pod(v); }
  void write_bool(bool v) { write_pod(static_cast<std::uint8_t>(v ? 1 : 0)); }
  void write_size(std::size_t v) { write_u64(static_cast<std::uint64_t>(v)); }

  std::size_t size() const { return buf_.size(); }
  Bytes take() { return std::move(buf_); }
  const Bytes& bytes() const { return buf_; }

 private:
  Bytes buf_;
};

/// Reads back what a SnapshotWriter produced; throws SnapshotError on
/// underflow rather than reading garbage.
class SnapshotReader {
 public:
  using Bytes = SnapshotWriter::Bytes;

  explicit SnapshotReader(const Bytes& bytes) : bytes_(bytes) {}

  void read_raw(void* out, std::size_t n) {
    if (n > bytes_.size() - pos_) {  // pos_ + n could wrap around
      throw SnapshotError("truncated (want " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos_) + " of " +
                          std::to_string(bytes_.size()) + ")");
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read_pod() {
    T v;
    read_raw(&v, sizeof(T));
    return v;
  }

  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  std::int64_t read_i64() { return read_pod<std::int64_t>(); }
  bool read_bool() { return read_pod<std::uint8_t>() != 0; }
  std::size_t read_size() { return static_cast<std::size_t>(read_u64()); }

  /// Reads an element count for a codec whose every element takes at
  /// least `min_elem_bytes` bytes, rejecting a count the remaining bytes
  /// cannot hold before the caller allocates for it.
  std::size_t read_count(std::size_t min_elem_bytes = 1) {
    const std::size_t n = read_size();
    if (n > remaining() / min_elem_bytes) {
      throw SnapshotError("count " + std::to_string(n) + " of at least " +
                          std::to_string(min_elem_bytes) +
                          " bytes each exceeds the " +
                          std::to_string(remaining()) + " bytes left");
    }
    return n;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const Bytes& bytes_;
  std::size_t pos_{0};
};

/// Customization point: StateCodec<T>::write(w, v) / ::read(r). The
/// constrained primary covers every trivially copyable payload; partial
/// specializations below (and in headers that own richer types, e.g.
/// aggbased/embedded.hpp) cover composites.
template <typename T>
struct StateCodec;

template <typename T>
  requires std::is_trivially_copyable_v<T>
struct StateCodec<T> {
  static void write(SnapshotWriter& w, const T& v) { w.write_pod(v); }
  static T read(SnapshotReader& r) { return r.read_pod<T>(); }
};

/// Whether T can round-trip through a snapshot. Operators whose payload
/// type has no codec still compile — their snapshot hooks record an
/// "unsupported" flag instead (restore then refuses).
template <typename T>
concept SnapshotSerializable =
    requires(SnapshotWriter& w, SnapshotReader& r, const T& v) {
      StateCodec<T>::write(w, v);
      { StateCodec<T>::read(r) } -> std::convertible_to<T>;
    };

template <typename T>
void write_value(SnapshotWriter& w, const T& v) {
  StateCodec<T>::write(w, v);
}

template <typename T>
T read_value(SnapshotReader& r) {
  return StateCodec<T>::read(r);
}

template <>
struct StateCodec<std::string> {
  static void write(SnapshotWriter& w, const std::string& v) {
    w.write_size(v.size());
    w.write_raw(v.data(), v.size());
  }
  static std::string read(SnapshotReader& r) {
    std::string v(r.read_count(), '\0');
    r.read_raw(v.data(), v.size());
    return v;
  }
};

// The composite codecs below are constrained on their element types being
// serializable themselves: without the constraints the specialization
// would *declare* write/read for any element type (making the concept a
// shallow check) and then fail at instantiation depth. Every codec writes
// at least one byte per value (kMinEncodedBytes says where it is more),
// which is what lets read_count() bound a decoded element count by the
// bytes left.
template <typename T>
inline constexpr std::size_t kMinEncodedBytes = 1;

/// A tuple writes its event time and stamp (16 bytes) before its payload.
template <typename P>
inline constexpr std::size_t kMinEncodedBytes<Tuple<P>> =
    16 + kMinEncodedBytes<P>;

template <typename T>
  requires SnapshotSerializable<T>
struct StateCodec<std::vector<T>> {
  static void write(SnapshotWriter& w, const std::vector<T>& v) {
    w.write_size(v.size());
    for (const T& x : v) write_value(w, x);
  }
  static std::vector<T> read(SnapshotReader& r) {
    std::vector<T> v;
    const std::size_t n = r.read_count(kMinEncodedBytes<T>);
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(read_value<T>(r));
    return v;
  }
};

template <typename A, typename B>
  requires(SnapshotSerializable<A> && SnapshotSerializable<B>)
struct StateCodec<std::pair<A, B>> {
  static void write(SnapshotWriter& w, const std::pair<A, B>& v) {
    write_value(w, v.first);
    write_value(w, v.second);
  }
  static std::pair<A, B> read(SnapshotReader& r) {
    A a = read_value<A>(r);
    B b = read_value<B>(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename T>
  requires SnapshotSerializable<T>
struct StateCodec<std::optional<T>> {
  static void write(SnapshotWriter& w, const std::optional<T>& v) {
    w.write_bool(v.has_value());
    if (v) write_value(w, *v);
  }
  static std::optional<T> read(SnapshotReader& r) {
    if (!r.read_bool()) return std::nullopt;
    return read_value<T>(r);
  }
};

/// Stream tuples: event time, wall-clock stamp, then the payload through
/// its own codec. (More specialized than the trivially-copyable primary,
/// so Tuple<int> and Tuple<BigStruct> serialize through the same path.)
template <typename P>
  requires SnapshotSerializable<P>
struct StateCodec<Tuple<P>> {
  static void write(SnapshotWriter& w, const Tuple<P>& t) {
    w.write_i64(t.ts);
    w.write_u64(t.stamp);
    write_value(w, t.value);
  }
  static Tuple<P> read(SnapshotReader& r) {
    Tuple<P> t;
    t.ts = r.read_i64();
    t.stamp = r.read_u64();
    t.value = read_value<P>(r);
    return t;
  }
};

/// Receives one node's serialized state when a barrier completes at that
/// node. Implemented by CheckpointStore; declared here so the graph layer
/// need not depend on the store.
class CheckpointRecorder {
 public:
  virtual ~CheckpointRecorder() = default;
  virtual void record(std::size_t node_index, std::uint64_t checkpoint_id,
                      SnapshotWriter::Bytes state) = 0;
};

/// One node's contribution to an asynchronous checkpoint, produced by
/// NodeBase::freeze_snapshot at barrier time. `serialize` encodes the
/// frozen epoch (safe to run off the node's thread — the freeze already
/// detached it from live mutation); `post` runs after the bytes are
/// recorded: epoch unpin + retired-version GC. The chaos matrix's GC
/// kill fires inside the store's record() (after the durable commit),
/// not here — post itself is fault-free.
struct FrozenJob {
  std::function<SnapshotWriter::Bytes()> serialize;
  std::function<void()> post;
};

/// Executes snapshot jobs off the barrier path. Implemented by
/// AsyncCheckpointer (background worker thread); declared here so the
/// graph layer need not depend on the recovery runtime.
class SnapshotExecutor {
 public:
  virtual ~SnapshotExecutor() = default;
  virtual void submit(CheckpointRecorder* recorder, std::size_t node_index,
                      std::uint64_t checkpoint_id, FrozenJob job) = 0;
  /// Blocks until every submitted job has been recorded (or discarded by
  /// a fatal checkpoint-path failure).
  virtual void drain() = 0;
  /// Called when the executor is attached to a (new) flow attempt. Lets a
  /// stateful executor shed failure state from a previous attempt — the
  /// AsyncCheckpointer un-poisons itself here so a fatal in attempt N
  /// cannot silently swallow attempt N+1's cuts.
  virtual void begin_attempt() {}
};

}  // namespace aggspes
