#pragma once

/// \file comm_tags.hpp
/// Central registry of the point-to-point tags the PLA layer uses. Every tag
/// is listed here once so a new subsystem cannot silently collide with an
/// existing stream, and the static_asserts below enforce the two invariants
/// the layer depends on:
///
///  1. all tags are pairwise distinct, and
///  2. all tags stay strictly below simmpi::kInternalTagBase (the runtime's
///     collectives and split allreduce own that space).
///
/// The ghost exchange has two DATA streams, forward and reverse; a single
/// vector and a k-lane panel share them (a vector is a width-1 panel). Each
/// stream carries its own epoch counter in the checksummed exchange
/// protocol (see GhostExchange), so a stream's epoch sequence does not
/// depend on how the other stream interleaves and a stale retransmission
/// on one stream cannot alias a live epoch of the other. Each data stream's
/// control (ACK/NACK) tag sits at a fixed offset from its data tag.

#include "hymv/simmpi/simmpi.hpp"

namespace hymv::pla::tags {

// Data streams (payload messages).
inline constexpr int kForward = 1001;  ///< forward exchange (LNSM)
inline constexpr int kReverse = 1002;  ///< reverse exchange (GNGM)

/// Number of protected data streams; each has its own epoch counter.
inline constexpr int kNumDataStreams = 2;

// Control streams (ACK/NACK of the checksummed protocol), one per data
// stream at a fixed offset.
inline constexpr int kForwardCtrl = 1005;
inline constexpr int kReverseCtrl = 1006;

/// Epoch-array index of a data stream: kForward, kReverse -> 0, 1.
constexpr int data_stream_index(int data_tag) { return data_tag - kForward; }

/// Control tag paired with a data tag.
constexpr int ctrl_tag_of(int data_tag) {
  return data_tag - kForward + kForwardCtrl;
}

static_assert(kForward < kReverse && kReverse < kForwardCtrl &&
                  kForwardCtrl < kReverseCtrl,
              "comm tags must be pairwise distinct");
static_assert(kForward > 0 && kReverseCtrl < simmpi::kInternalTagBase,
              "pla tags must stay below the simmpi-internal tag space");
static_assert(ctrl_tag_of(kForward) == kForwardCtrl &&
                  ctrl_tag_of(kReverse) == kReverseCtrl,
              "each data stream's ctrl tag is at the same offset");
static_assert(data_stream_index(kForward) == 0 &&
                  data_stream_index(kReverse) == kNumDataStreams - 1,
              "data streams index a dense epoch array");

}  // namespace hymv::pla::tags
