// Node snapshot/restore (DESIGN.md §12).
//
// capture_world() encodes every structure of a quiesced simulation —
// engine clock and pending events, buddy bitmaps, mem_map frame
// metadata, page-cache LRU order, packed page tables, hugetlb pool
// stacks, VMA trees, the PID registry, module state, the flight
// recorder, metrics and the fault injector — into a WorldImage.
// restore_world() overwrites a freshly booted world (same configuration,
// aging skipped) with the image and re-arms the captured events, after
// which the resumed run is event-for-event identical to the run that
// never stopped. The harness uses this to age a node once and fan many
// measurement configurations out from the same aged state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/image.hpp"

namespace hpmmap::os {
class Node;
}
namespace hpmmap::sim {
class Engine;
}
namespace hpmmap::workloads {
class KernelBuild;
}

namespace hpmmap::snapshot {

/// An image file or image that cannot be restored: unreadable, framed
/// wrongly, failing its digest, inconsistent with itself, or describing
/// a different world than the target.
struct LoadError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A kernel build participating in the world, tagged with the node it
/// churns (scaling worlds run one or more builds per node).
struct BuildRef {
  workloads::KernelBuild* build = nullptr;
  std::uint32_t node_index = 0;
};

/// Capture the complete state of `engine` plus `nodes` and `builds`.
/// Every pending engine event must belong to one of the passed owners
/// (asserted); capture at a quiesced instant — after run_until(), never
/// from inside a callback.
[[nodiscard]] WorldImage capture_world(sim::Engine& engine,
                                       const std::vector<os::Node*>& nodes,
                                       const std::vector<BuildRef>& builds = {});

/// Overwrite a freshly constructed world with `image`. The target must
/// be structurally identical to the captured one (same node/zone layout,
/// same builds constructed but not started). Also restores this thread's
/// flight recorder, metrics and injector counters (the injector's
/// on_fire hook is left untouched).
///
/// Throws LoadError when the fingerprint differs (the world is then
/// untouched) or when the image contradicts itself or the target (an
/// index, pid, enum or count out of range, trailing bytes). After such a
/// mid-restore failure the world and this thread's trace state are
/// unusable: restore a good image into them before running or
/// destroying the world, since teardown walks the half-restored state.
void restore_world(const WorldImage& image, sim::Engine& engine,
                   const std::vector<os::Node*>& nodes,
                   const std::vector<BuildRef>& builds = {});

/// Fire exactly the next pending event (time-travel single-stepping for
/// the replay-to-anomaly harness). Returns false when nothing fired.
bool step_one(sim::Engine& engine);

/// File format v6: u32 magic "HPSN", u32 version, u64 payload length,
/// u64 digest(payload), then the payload (WorldImage::bytes).
inline constexpr std::size_t kFileHeaderBytes = 24;

/// FNV-1a over the payload's native-order 64-bit words, then its tail
/// bytes (DESIGN.md §12.2).
[[nodiscard]] std::uint64_t digest(std::string_view payload) noexcept;

/// Write `image` to `path` (--snapshot-out).
void save(const WorldImage& image, const std::string& path);
/// Read an image file (--snapshot-in). Throws LoadError when the file
/// cannot be opened, its magic, version or length is wrong, or its
/// digest does not match. Trace strings are interned on restore.
[[nodiscard]] WorldImage load(const std::string& path);

} // namespace hpmmap::snapshot
