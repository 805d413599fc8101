// Core stream element types of the minispe DataFlow engine.
//
// Terminology follows the paper (§ 2.1): a stream is an unbounded sequence
// of homogeneous tuples; every tuple carries a special event-time attribute
// τ; event time progresses in discrete δ increments (we fix δ = 1 tick).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <variant>

namespace aggspes {

/// Event time, in ticks since the epoch. One tick is the engine's δ.
using Timestamp = std::int64_t;

/// δ: the smallest event-time increment (§ 2.1).
inline constexpr Timestamp kDelta = 1;

/// Smallest representable event time; initial value of every watermark.
inline constexpr Timestamp kMinTimestamp =
    std::numeric_limits<Timestamp>::min();

/// Largest representable event time.
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();

/// A data tuple: event time τ plus a typed payload.
///
/// `stamp` is wall-clock metadata used only for latency measurement: the
/// steady-clock nanosecond at which the *latest* ingress tuple contributing
/// to this tuple entered the system. Operators propagate it as the max over
/// contributing inputs; it never affects semantics and is 0 in unit tests.
template <typename P>
struct Tuple {
  Timestamp ts{0};
  std::uint64_t stamp{0};
  P value{};

  friend bool operator==(const Tuple&, const Tuple&) = default;
};

/// A watermark (§ 2.3, Definition 3): a promise that every tuple fed to the
/// receiving operator from now on has event time >= ts.
struct Watermark {
  Timestamp ts{0};
  friend bool operator==(const Watermark&, const Watermark&) = default;
};

/// End-of-stream marker used by runtimes for orderly shutdown. It is not
/// part of the DataFlow model; sources emit it after their final watermark.
struct EndOfStream {
  friend bool operator==(const EndOfStream&, const EndOfStream&) = default;
};

/// Aligned checkpoint barrier (recovery subsystem). Sources inject markers
/// between elements; each operator snapshots its state once it has seen
/// marker `id` on every live regular input and then forwards it, so the
/// per-channel cut is consistent (FIFO channels carry no pre-marker data
/// past the marker). Unlike watermarks, markers DO traverse loop edges:
/// the loop head stages its snapshot when the marker arrives and records
/// in-flight feedback tuples until the marker returns around the cycle
/// (Chandy-Lamport channel recording), so cyclic graphs checkpoint without
/// waiting for the loop to quiesce.
struct CheckpointMarker {
  std::uint64_t id{0};
  friend bool operator==(const CheckpointMarker&,
                         const CheckpointMarker&) = default;
};

/// One element of a physical stream.
template <typename P>
using Element = std::variant<Tuple<P>, Watermark, EndOfStream, CheckpointMarker>;

template <typename P>
bool is_tuple(const Element<P>& e) {
  return std::holds_alternative<Tuple<P>>(e);
}

template <typename P>
bool is_watermark(const Element<P>& e) {
  return std::holds_alternative<Watermark>(e);
}

template <typename P>
bool is_end(const Element<P>& e) {
  return std::holds_alternative<EndOfStream>(e);
}

template <typename P>
bool is_marker(const Element<P>& e) {
  return std::holds_alternative<CheckpointMarker>(e);
}

/// Micro-batch size: how many elements a threaded channel moves per bulk
/// transfer, and at most how many tuples a consumer receives as one run
/// (DESIGN.md § 16).
inline constexpr std::size_t kElementBlockCapacity = 256;

}  // namespace aggspes
