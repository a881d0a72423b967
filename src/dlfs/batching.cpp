#include "dlfs/batching.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>

#include "dlfs/sample_cache.hpp"

namespace dlfs::core {

namespace {

// An epoch's global unit order: the same on every client for one seed
// (the dlfs_sequence contract), so EpochSequence and sample_positions
// agree with zero communication.
std::vector<std::uint64_t> unit_shuffle(const BatchPlan& plan,
                                        std::uint64_t seed) {
  Rng rng(seed);
  return rng.permutation(plan.units().size());
}

}  // namespace

BatchPlan::BatchPlan(const std::vector<SampleLocation>& layout,
                     std::uint64_t chunk_bytes, BatchingMode mode)
    : mode_(mode), num_samples_(layout.size()) {
  if (chunk_bytes == 0) throw std::invalid_argument("chunk_bytes must be > 0");

  if (mode != BatchingMode::kChunkLevel) {
    units_.reserve(layout.size());
    for (std::size_t i = 0; i < layout.size(); ++i) {
      const SampleLocation& s = layout[i];
      ReadUnit u;
      u.nid = s.nid;
      u.offset = s.offset;
      u.len = s.len;
      u.is_chunk = false;
      u.samples.push_back(
          UnitSample{static_cast<std::uint32_t>(i), 0, s.len});
      units_.push_back(std::move(u));
    }
    edge_units_ = units_.size();
    return;
  }

  // Chunk-level: group samples per node, walk the chunk grid. Samples
  // fully inside one chunk join that chunk's unit; boundary-crossers
  // become edge units.
  struct ChunkKey {
    std::uint16_t nid;
    std::uint64_t chunk;
    bool operator<(const ChunkKey& o) const {
      return nid != o.nid ? nid < o.nid : chunk < o.chunk;
    }
  };
  std::map<ChunkKey, ReadUnit> chunks;
  std::vector<std::uint64_t> node_data_end;

  for (std::size_t i = 0; i < layout.size(); ++i) {
    const SampleLocation& s = layout[i];
    if (node_data_end.size() <= s.nid) node_data_end.resize(s.nid + 1, 0);
    node_data_end[s.nid] =
        std::max<std::uint64_t>(node_data_end[s.nid], s.offset + s.len);
    const std::uint64_t first_chunk = s.offset / chunk_bytes;
    const std::uint64_t last_chunk = (s.offset + s.len - 1) / chunk_bytes;
    if (first_chunk == last_chunk) {
      ChunkKey key{s.nid, first_chunk};
      auto [it, created] = chunks.try_emplace(key);
      ReadUnit& u = it->second;
      if (created) {
        u.nid = s.nid;
        u.offset = first_chunk * chunk_bytes;
        u.is_chunk = true;
      }
      u.samples.push_back(UnitSample{
          static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(s.offset - u.offset), s.len});
    } else {
      ReadUnit u;
      u.nid = s.nid;
      u.offset = s.offset;
      u.len = s.len;
      u.is_chunk = false;
      u.samples.push_back(
          UnitSample{static_cast<std::uint32_t>(i), 0, s.len});
      units_.push_back(std::move(u));
      ++edge_units_;
    }
  }
  for (auto& [key, u] : chunks) {
    // Clip the final chunk of a node's region to the data end.
    const std::uint64_t end = std::min<std::uint64_t>(
        u.offset + chunk_bytes, node_data_end[u.nid]);
    u.len = static_cast<std::uint32_t>(end - u.offset);
    units_.push_back(std::move(u));
    ++chunk_units_;
  }
}

EpochSequence::EpochSequence(const BatchPlan& plan, std::uint64_t seed,
                             std::uint32_t client_idx,
                             std::uint32_t num_clients) {
  if (num_clients == 0 || client_idx >= num_clients) {
    throw std::invalid_argument("bad client index");
  }
  const auto perm = unit_shuffle(plan, seed);
  order_.reserve(perm.size() / num_clients + 1);
  for (std::size_t i = client_idx; i < perm.size(); i += num_clients) {
    const ReadUnit* u = &plan.units()[perm[i]];
    order_.push_back(u);
    total_samples_ += u->samples.size();
  }
}

std::vector<std::uint32_t> sample_positions(const BatchPlan& plan,
                                            std::uint64_t seed) {
  const auto perm = unit_shuffle(plan, seed);
  std::vector<std::uint32_t> pos(plan.num_samples());
  for (std::size_t rank = 0; rank < perm.size(); ++rank) {
    for (const UnitSample& us : plan.units()[perm[rank]].samples) {
      pos[us.sample_id] = static_cast<std::uint32_t>(rank);
    }
  }
  return pos;
}

std::vector<EpochSequence::UnitPicks> EpochSequence::take(std::size_t n) {
  std::vector<UnitPicks> out;
  std::size_t need = std::min(n, remaining_samples());
  while (need > 0) {
    const ReadUnit* u = order_[cur_unit_];
    const std::uint32_t avail =
        static_cast<std::uint32_t>(u->samples.size()) - cur_sample_;
    const std::uint32_t take_now =
        static_cast<std::uint32_t>(std::min<std::size_t>(avail, need));
    out.push_back(UnitPicks{u, cur_unit_, cur_sample_, take_now});
    cur_sample_ += take_now;
    consumed_samples_ += take_now;
    need -= take_now;
    if (cur_sample_ == u->samples.size()) {
      ++cur_unit_;
      cur_sample_ = 0;
    }
  }
  return out;
}

EpochUnitProvider::EpochUnitProvider(const EpochSequence& seq,
                                     std::uint32_t group,
                                     const SampleCache* cache,
                                     RouteResolver routes, PeerProbe peers,
                                     NodeProbe live, NodeProbe suspect)
    : seq_(&seq),
      group_(std::max<std::uint32_t>(group, 1)),
      cache_(cache),
      routes_(std::move(routes)),
      peers_(std::move(peers)),
      live_(std::move(live)),
      suspect_(routes_ ? std::move(suspect) : NodeProbe{}) {}

std::size_t EpochUnitProvider::num_units() const {
  return (seq_->num_units() + group_ - 1) / group_;
}

bool EpochUnitProvider::replannable(std::size_t slot) const {
  return suspect_ && group_ == 1 && seq_->unit_at(slot)->is_chunk;
}

std::vector<UnitExtent> EpochUnitProvider::unit_extents(
    std::size_t slot) const {
  const auto suspect = [this](std::uint16_t nid) {
    return suspect_ && suspect_(nid);
  };
  std::vector<UnitExtent> out;
  const std::size_t begin = slot * group_;
  const std::size_t end =
      std::min<std::size_t>(begin + group_, seq_->num_units());
  out.reserve(end - begin);
  for (std::size_t s = begin; s < end; ++s) {
    const ReadUnit* u = seq_->unit_at(s);
    if (u->is_chunk && (!live_ || live_(u->nid)) && !suspect(u->nid)) {
      // Chunk units are keyed by the epoch slot and fetched whole even
      // when some of their samples are resident (the chunk path always
      // consumes the full unit).
      out.push_back(UnitExtent{u->nid, u->offset, u->len, s});
      continue;
    }
    if (u->is_chunk) {
      // Home node down or suspect: every reachable sample reads from its
      // first live (non-suspect, if any) copy, all at once, into the
      // unit's one landing chunk.
      const auto live = [this](const RouteHop& h) { return live_(h.nid); };
      for (const UnitSample& us : u->samples) {
        std::vector<RouteHop> hops{
            RouteHop{u->nid, u->offset + us.offset_in_unit}};
        if (routes_) {
          const auto r = routes_(us.sample_id);
          hops.insert(hops.end(), r.begin(), r.end());
        }
        auto first = std::find_if(
            hops.begin(), hops.end(),
            [&](const RouteHop& h) { return live(h) && !suspect(h.nid); });
        if (first == hops.end()) {
          first = std::find_if(hops.begin(), hops.end(), live);
        }
        if (first == hops.end()) continue;  // no live copy: skipped
        std::vector<RouteHop> rest(first + 1, hops.end());
        // Suspect copies passed over stay as the last resorts.
        std::copy_if(hops.begin(), first, std::back_inserter(rest), live);
        out.push_back(UnitExtent{first->nid, first->offset, us.len,
                                 us.sample_id, std::move(rest),
                                 us.offset_in_unit});
      }
      continue;
    }
    // Single-sample extents (sample-level/unbatched units and chunk-mode
    // edge samples), keyed by sample id. With a cache attached, resident
    // samples are served from it at consume time — don't re-read them.
    const std::uint32_t id = u->samples.front().sample_id;
    if (cache_ != nullptr && cache_->valid(id)) continue;
    // Peer-resident samples are likewise elided: the consume path serves
    // them from a co-located or remote peer cache instead of the device.
    if (peers_ && peers_(id)) continue;
    UnitExtent x{u->nid, u->offset, u->len, id};
    if (routes_) x.routes = routes_(id);
    out.push_back(std::move(x));
  }
  return out;
}

}  // namespace dlfs::core
