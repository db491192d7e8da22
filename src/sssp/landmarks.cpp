#include "src/sssp/landmarks.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "src/baselines/sequential.hpp"
#include "src/util/assert.hpp"

namespace acic::sssp {

using graph::Csr;
using graph::Dist;
using graph::VertexId;

LandmarkIndex::LandmarkIndex(const Csr& forward, const Csr& reverse,
                             LandmarkConfig config)
    : config_(config), num_vertices_(forward.num_vertices()) {
  ACIC_ASSERT_MSG(reverse.num_vertices() == num_vertices_,
                  "forward/reverse vertex counts must match");
  landmark_of_.assign(num_vertices_, -1);
  if (num_vertices_ == 0 || config_.num_landmarks == 0) return;

  // Farthest-point selection.  The first landmark is the highest-degree
  // vertex (lowest id on ties) — a hub whose rows cover the most
  // shortest paths; each next landmark maximizes its distance from the
  // already-chosen set, measured on the forward rows built so far, so
  // selection reuses exactly the tables the index keeps anyway.
  VertexId first = 0;
  for (VertexId v = 1; v < num_vertices_; ++v) {
    if (forward.out_degree(v) > forward.out_degree(first)) first = v;
  }

  const std::size_t want =
      std::min<std::size_t>(config_.num_landmarks, num_vertices_);
  std::vector<Dist> score(num_vertices_, graph::kInfDist);
  VertexId next = first;
  while (landmarks_.size() < want) {
    landmark_of_[next] = static_cast<std::int32_t>(landmarks_.size());
    landmarks_.push_back(next);
    from_.push_back(baselines::dijkstra(forward, next));
    const std::vector<Dist>& row = from_.back();
    VertexId best = graph::kInvalidVertex;
    Dist best_score = 0.0;
    for (VertexId v = 0; v < num_vertices_; ++v) {
      if (landmark_of_[v] >= 0) continue;
      score[v] = std::min(score[v], row[v]);
      // Unreachable candidates (other components) are skipped: an
      // all-infinity row bounds nothing.
      if (score[v] == graph::kInfDist) continue;
      if (best == graph::kInvalidVertex || score[v] > best_score) {
        best = v;
        best_score = score[v];
      }
    }
    if (best == graph::kInvalidVertex || best_score <= 0.0) break;
    next = best;
  }

  to_.reserve(landmarks_.size());
  for (const VertexId lm : landmarks_) {
    to_.push_back(baselines::dijkstra(reverse, lm));
  }
  from_valid_.assign(landmarks_.size(), 1);
  to_valid_.assign(landmarks_.size(), 1);
}

bool LandmarkIndex::exact_p2p(VertexId s, VertexId t, Dist* out) const {
  if (s == t) {
    *out = 0.0;
    return true;
  }
  // Source-landmark hit: the forward row *is* the answer, bitwise — it
  // was produced by the same forward solve a dedicated engine run would
  // do.  The symmetric target-landmark case must NOT serve its finite
  // reverse-row value: a reverse-graph solve sums the same path in the
  // opposite order, so the value can differ from the forward answer by
  // ulps, and the serving contract is bitwise equality with a full
  // forward run.  Reverse rows still prove *unreachability* exactly
  // (infinity carries no rounding), which the check below uses.
  const std::int32_t ks = landmark_of_[s];
  if (ks >= 0 && from_valid_[static_cast<std::size_t>(ks)]) {
    *out = from_[static_cast<std::size_t>(ks)][t];
    return true;
  }
  const std::int32_t kt = landmark_of_[t];
  if (kt >= 0 && to_valid_[static_cast<std::size_t>(kt)] &&
      to_[static_cast<std::size_t>(kt)][s] == graph::kInfDist) {
    *out = graph::kInfDist;
    return true;
  }
  // Structural unreachability: if L reaches s but not t, no s→t path
  // exists (it would extend L→s); if t reaches L but s does not, no
  // s→t path exists (it would extend to s→t→L).  Pure comparisons
  // against infinity — no arithmetic, hence exact.
  for (std::size_t k = 0; k < landmarks_.size(); ++k) {
    if (from_valid_[k] && from_[k][s] != graph::kInfDist &&
        from_[k][t] == graph::kInfDist) {
      *out = graph::kInfDist;
      return true;
    }
    if (to_valid_[k] && to_[k][t] != graph::kInfDist &&
        to_[k][s] == graph::kInfDist) {
      *out = graph::kInfDist;
      return true;
    }
  }
  return false;
}

LandmarkBounds LandmarkIndex::bounds(VertexId s, VertexId t) const {
  Dist exact = 0.0;
  if (exact_p2p(s, t, &exact)) return LandmarkBounds{exact, exact};

  LandmarkBounds b;
  b.lower = 0.0;
  b.upper = graph::kInfDist;
  const double slack = config_.slack;
  for (std::size_t k = 0; k < landmarks_.size(); ++k) {
    if (from_valid_[k]) {
      const Dist a_t = from_[k][t];
      const Dist a_s = from_[k][s];
      if (a_t != graph::kInfDist && a_s != graph::kInfDist) {
        const Dist cand = (a_t - a_s) - slack * (a_t + a_s);
        if (cand > b.lower) b.lower = cand;
      }
    }
    if (to_valid_[k]) {
      const Dist c_s = to_[k][s];
      const Dist c_t = to_[k][t];
      if (c_s != graph::kInfDist && c_t != graph::kInfDist) {
        const Dist cand = (c_s - c_t) - slack * (c_s + c_t);
        if (cand > b.lower) b.lower = cand;
      }
    }
    if (from_valid_[k] && to_valid_[k]) {
      const Dist up = to_[k][s];
      const Dist down = from_[k][t];
      if (up != graph::kInfDist && down != graph::kInfDist) {
        const Dist cand = (up + down) * (1.0 + slack);
        if (cand < b.upper) b.upper = cand;
      }
    }
  }
  return b;
}

Dist LandmarkIndex::heuristic(VertexId v, VertexId t) const {
  Dist h = 0.0;
  const double slack = config_.slack;
  for (std::size_t k = 0; k < landmarks_.size(); ++k) {
    if (from_valid_[k]) {
      const Dist a_t = from_[k][t];
      const Dist a_v = from_[k][v];
      if (a_v != graph::kInfDist) {
        // L reaches v but not t: d(v, t) is provably infinite, so the
        // heuristic may be too — A* then never pops v before
        // termination.
        if (a_t == graph::kInfDist) return graph::kInfDist;
        const Dist cand = (a_t - a_v) - slack * (a_t + a_v);
        if (cand > h) h = cand;
      }
    }
    if (to_valid_[k]) {
      const Dist c_v = to_[k][v];
      const Dist c_t = to_[k][t];
      if (c_t != graph::kInfDist) {
        if (c_v == graph::kInfDist) return graph::kInfDist;
        const Dist cand = (c_v - c_t) - slack * (c_v + c_t);
        if (cand > h) h = cand;
      }
    }
  }
  return h;
}

namespace {

/// A* frontier entry; min-ordered on (f, vertex) for a deterministic
/// expansion schedule (the result value is the unique fixed point
/// either way).
struct AstarEntry {
  Dist f = 0.0;
  Dist g = 0.0;
  VertexId vertex = 0;
};
struct AstarGreater {
  bool operator()(const AstarEntry& a, const AstarEntry& b) const {
    if (a.f != b.f) return a.f > b.f;
    return a.vertex > b.vertex;
  }
};

}  // namespace

Dist LandmarkIndex::p2p(const Csr& forward, VertexId s, VertexId t,
                        P2pWorkspace* ws, P2pStats* stats) const {
  ACIC_ASSERT(s < num_vertices_ && t < num_vertices_);
  Dist exact = 0.0;
  if (exact_p2p(s, t, &exact)) {
    if (stats != nullptr) stats->exact_tier = true;
    return exact;
  }

  // Version-stamped g-values: a slot is live only when its stamp
  // matches the current version, so resets are O(1).
  ws->g.resize(num_vertices_);
  ws->stamp.resize(num_vertices_, 0);
  if (++ws->version == 0) {
    std::fill(ws->stamp.begin(), ws->stamp.end(), 0);
    ws->version = 1;
  }
  const std::uint32_t version = ws->version;
  auto g_of = [&](VertexId v) {
    return ws->stamp[v] == version ? ws->g[v] : graph::kInfDist;
  };
  auto set_g = [&](VertexId v, Dist d) {
    ws->g[v] = d;
    ws->stamp[v] = version;
  };

  std::priority_queue<AstarEntry, std::vector<AstarEntry>, AstarGreater>
      open;
  set_g(s, 0.0);
  open.push(AstarEntry{heuristic(s, t), 0.0, s});

  while (!open.empty()) {
    const AstarEntry e = open.top();
    open.pop();
    const Dist best = g_of(t);
    // Any path still undiscovered leaves through some open vertex v
    // with key f(v) >= e.f, and (admissible heuristic) costs at least
    // f(v) — so once the popped key reaches the settled target
    // distance, that distance is final.  Re-expansion below keeps this
    // argument valid even though the slack-deflated heuristic is not
    // necessarily consistent.
    if (best != graph::kInfDist && e.f >= best) break;
    if (e.g != g_of(e.vertex)) continue;  // superseded entry
    if (e.vertex == t) continue;  // cycles out of t never improve it
    if (stats != nullptr) ++stats->settled;
    for (const graph::Neighbor& nb : forward.out_neighbors(e.vertex)) {
      if (stats != nullptr) ++stats->relaxed;
      const Dist nd = e.g + nb.weight;
      if (nd < g_of(nb.dst)) {
        set_g(nb.dst, nd);
        const Dist h = heuristic(nb.dst, t);
        if (h != graph::kInfDist) {
          open.push(AstarEntry{nd + h, nd, nb.dst});
        }
      }
    }
  }
  return g_of(t);
}

std::size_t LandmarkIndex::invalidate(
    std::span<const dynamic::EdgeDelta> deltas) {
  std::size_t newly = 0;
  for (std::size_t k = 0; k < landmarks_.size(); ++k) {
    if (from_valid_[k]) {
      // Forward rows: the cache's per-edge staleness test verbatim — a
      // removal/increase matters only where the edge was a tight
      // witness, an insert/decrease only where it strictly improves
      // the head.
      const std::vector<Dist>& row = from_[k];
      for (const dynamic::EdgeDelta& d : deltas) {
        const Dist du = row[d.src];
        if (du == graph::kInfDist) continue;
        if ((d.is_removal_or_increase() &&
             du + d.weight_before == row[d.dst]) ||
            (d.is_insert_or_decrease() &&
             du + d.weight_after < row[d.dst])) {
          from_valid_[k] = 0;
          ++newly;
          break;
        }
      }
    }
    if (to_valid_[k]) {
      // Reverse rows measure d(x, L): forward edge (u, v) appears on
      // those paths as v-then-u in the reverse graph the row was
      // computed on, so the same test runs with the roles swapped.
      const std::vector<Dist>& row = to_[k];
      for (const dynamic::EdgeDelta& d : deltas) {
        const Dist dv = row[d.dst];
        if (dv == graph::kInfDist) continue;
        if ((d.is_removal_or_increase() &&
             dv + d.weight_before == row[d.src]) ||
            (d.is_insert_or_decrease() &&
             dv + d.weight_after < row[d.src])) {
          to_valid_[k] = 0;
          ++newly;
          break;
        }
      }
    }
  }
  return newly;
}

std::size_t LandmarkIndex::refresh(const Csr& forward,
                                   const Csr& reverse) {
  ACIC_ASSERT(forward.num_vertices() == num_vertices_ &&
              reverse.num_vertices() == num_vertices_);
  std::size_t recomputed = 0;
  for (std::size_t k = 0; k < landmarks_.size(); ++k) {
    if (!from_valid_[k]) {
      from_[k] = baselines::dijkstra(forward, landmarks_[k]);
      from_valid_[k] = 1;
      ++recomputed;
    }
    if (!to_valid_[k]) {
      to_[k] = baselines::dijkstra(reverse, landmarks_[k]);
      to_valid_[k] = 1;
      ++recomputed;
    }
  }
  return recomputed;
}

std::size_t LandmarkIndex::invalid_rows() const {
  std::size_t n = 0;
  for (const std::uint8_t v : from_valid_) n += (v == 0);
  for (const std::uint8_t v : to_valid_) n += (v == 0);
  return n;
}

double LandmarkIndex::invalid_fraction() const {
  const std::size_t rows = num_rows();
  if (rows == 0) return 0.0;
  return static_cast<double>(invalid_rows()) /
         static_cast<double>(rows);
}

}  // namespace acic::sssp
