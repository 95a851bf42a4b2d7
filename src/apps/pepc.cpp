#include "tibsim/apps/pepc.hpp"

#include <algorithm>
#include <cmath>

#include "tibsim/common/assert.hpp"

namespace tibsim::apps {

using perfmodel::AccessPattern;
using perfmodel::WorkProfile;

// ---------------------------------------------------------------------------
// BarnesHutTree (real numerics)
// ---------------------------------------------------------------------------

BarnesHutTree::BarnesHutTree(std::vector<Body> bodies)
    : bodies_(std::move(bodies)) {
  TIB_REQUIRE(!bodies_.empty());
  double lo = bodies_[0].x, hi = bodies_[0].x;
  for (const auto& b : bodies_) {
    lo = std::min({lo, b.x, b.y, b.z});
    hi = std::max({hi, b.x, b.y, b.z});
  }
  const double half = 0.5 * (hi - lo) + 1e-9;
  const double mid = 0.5 * (hi + lo);
  std::vector<int> indices(bodies_.size());
  for (std::size_t i = 0; i < indices.size(); ++i)
    indices[i] = static_cast<int>(i);
  nodes_.reserve(2 * bodies_.size());
  root_ = build(std::move(indices), mid, mid, mid, half, 0);
}

int BarnesHutTree::build(std::vector<int> indices, double cx, double cy,
                         double cz, double half, int depth) {
  if (indices.empty()) return -1;
  const int nodeIndex = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  {
    Node& node = nodes_.back();
    node.cx = cx;
    node.cy = cy;
    node.cz = cz;
    node.half = half;
    node.count = static_cast<int>(indices.size());
  }

  // Charge-weighted centroid.
  double q = 0.0, mx = 0.0, my = 0.0, mz = 0.0, aq = 0.0;
  for (int i : indices) {
    const Body& b = bodies_[static_cast<std::size_t>(i)];
    q += b.charge;
    const double w = std::abs(b.charge);
    aq += w;
    mx += w * b.x;
    my += w * b.y;
    mz += w * b.z;
  }
  nodes_[static_cast<std::size_t>(nodeIndex)].charge = q;
  if (aq > 0.0) {
    nodes_[static_cast<std::size_t>(nodeIndex)].mx = mx / aq;
    nodes_[static_cast<std::size_t>(nodeIndex)].my = my / aq;
    nodes_[static_cast<std::size_t>(nodeIndex)].mz = mz / aq;
  } else {
    nodes_[static_cast<std::size_t>(nodeIndex)].mx = cx;
    nodes_[static_cast<std::size_t>(nodeIndex)].my = cy;
    nodes_[static_cast<std::size_t>(nodeIndex)].mz = cz;
  }

  if (indices.size() == 1 || depth > 48) {
    nodes_[static_cast<std::size_t>(nodeIndex)].body = indices[0];
    return nodeIndex;
  }

  std::vector<int> buckets[8];
  for (int i : indices) {
    const Body& b = bodies_[static_cast<std::size_t>(i)];
    const int oct = (b.x >= cx ? 1 : 0) | (b.y >= cy ? 2 : 0) |
                    (b.z >= cz ? 4 : 0);
    buckets[oct].push_back(i);
  }
  const double h2 = half * 0.5;
  for (int oct = 0; oct < 8; ++oct) {
    if (buckets[oct].empty()) continue;
    const double ox = cx + ((oct & 1) != 0 ? h2 : -h2);
    const double oy = cy + ((oct & 2) != 0 ? h2 : -h2);
    const double oz = cz + ((oct & 4) != 0 ? h2 : -h2);
    const int child = build(std::move(buckets[oct]), ox, oy, oz, h2,
                            depth + 1);
    nodes_[static_cast<std::size_t>(nodeIndex)].children[oct] = child;
  }
  return nodeIndex;
}

void BarnesHutTree::accumulate(int nodeIndex, std::size_t i, double theta,
                               Force& force) const {
  const Node& node = nodes_[static_cast<std::size_t>(nodeIndex)];
  const Body& body = bodies_[i];
  const double dx = node.mx - body.x;
  const double dy = node.my - body.y;
  const double dz = node.mz - body.z;
  const double dist2 = dx * dx + dy * dy + dz * dz;

  const bool isLeaf = node.body >= 0;
  const bool farEnough =
      !isLeaf && theta > 0.0 &&
      (2.0 * node.half) * (2.0 * node.half) < theta * theta * dist2;

  if (isLeaf || farEnough) {
    if (isLeaf && static_cast<std::size_t>(node.body) == i) return;
    const double soft = dist2 + 1e-9;
    const double inv = 1.0 / std::sqrt(soft);
    const double w = node.charge * body.charge * inv * inv * inv;
    force.fx += w * dx;
    force.fy += w * dy;
    force.fz += w * dz;
    return;
  }
  for (int child : node.children) {
    if (child >= 0) accumulate(child, i, theta, force);
  }
}

BarnesHutTree::Force BarnesHutTree::forceOn(std::size_t i,
                                            double theta) const {
  TIB_REQUIRE(i < bodies_.size());
  Force f;
  if (root_ >= 0) accumulate(root_, i, theta, f);
  return f;
}

std::vector<BarnesHutTree::Force> BarnesHutTree::allForces(
    double theta) const {
  std::vector<Force> forces(bodies_.size());
  for (std::size_t i = 0; i < bodies_.size(); ++i)
    forces[i] = forceOn(i, theta);
  return forces;
}

std::vector<BarnesHutTree::Force> BarnesHutTree::directForces() const {
  std::vector<Force> forces(bodies_.size());
  for (std::size_t i = 0; i < bodies_.size(); ++i) {
    for (std::size_t j = 0; j < bodies_.size(); ++j) {
      if (i == j) continue;
      const double dx = bodies_[j].x - bodies_[i].x;
      const double dy = bodies_[j].y - bodies_[i].y;
      const double dz = bodies_[j].z - bodies_[i].z;
      const double dist2 = dx * dx + dy * dy + dz * dz + 1e-9;
      const double inv = 1.0 / std::sqrt(dist2);
      const double w =
          bodies_[j].charge * bodies_[i].charge * inv * inv * inv;
      forces[i].fx += w * dx;
      forces[i].fy += w * dy;
      forces[i].fz += w * dz;
    }
  }
  return forces;
}

// ---------------------------------------------------------------------------
// PepcBenchmark (distributed skeleton)
// ---------------------------------------------------------------------------

int PepcBenchmark::minimumNodes(const cluster::ClusterSpec& spec,
                                std::size_t particles) {
  const double total = static_cast<double>(particles) * bytesPerParticle();
  return static_cast<int>(std::ceil(total / spec.usableBytesPerNode()));
}

mpi::MpiWorld::RankBody PepcBenchmark::rankBody(Params params) {
  TIB_REQUIRE(params.particles >= 1000 && params.steps >= 1);
  return [params](mpi::MpiContext& ctx) {
    const double n = static_cast<double>(params.particles);
    const double p = static_cast<double>(ctx.size());
    const double local = n / p;

    for (int step = 0; step < params.steps; ++step) {
      // Space-filling-curve domain decomposition (parallel sort of keys).
      ctx.compute(WorkProfile{8.0 * local * std::log2(local), 48.0 * local,
                              AccessPattern::Blocked, 0.5, 1.0, 0.05});

      // Local tree construction.
      ctx.compute(WorkProfile{60.0 * local, 120.0 * local,
                              AccessPattern::Irregular, 0.5, 1.0, 0.05});

      // Branch-node exchange: every rank ships its essential-tree summary
      // to every peer. The per-peer payload shrinks only slowly with p, so
      // total traffic grows ~p per rank — the scaling killer.
      const auto branchBytes = static_cast<std::size_t>(
          32.0 * (std::cbrt(local) * std::cbrt(local) +
                  60.0 * std::log2(p + 1.0)));
      ctx.alltoallBytes(branchBytes);

      // Tree-walk force evaluation: ~36 flops per interaction, ~log n
      // interactions per particle, with tree-depth load imbalance.
      ctx.compute(WorkProfile{36.0 * local * std::log2(n), 200.0 * local,
                              AccessPattern::Irregular, 0.6, 1.0, 0.18});

      // Integration + global diagnostics.
      ctx.compute(WorkProfile{12.0 * local, 48.0 * local,
                              AccessPattern::Streaming, 0.8, 1.0, 0.0});
      const double energy[4] = {1.0, 1.0, 1.0, 1.0};
      ctx.allreduce(std::span<const double>(energy, 4), mpi::ReduceOp::Sum);
    }
    ctx.barrier();
  };
}

}  // namespace tibsim::apps
