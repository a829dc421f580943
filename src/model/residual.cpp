#include "model/residual.h"

#include <vector>

#include "common/check.h"
#include "common/simd.h"

namespace cloudalloc::model {

namespace {

// --- free-disk screen kernel (see ResidualView::screen_free_disk) --------
//
// free[i] = cap_m[i] - (used_disk[i] + bg_disk[i]) — the exact expression
// chain of the scalar free_disk() accessor, elementwise over a contiguous
// server range. Subtraction/addition only (no multiply), so there is no
// FMA-contraction hazard at any lane width; bit-identity needs no special
// flags here, only identical operation order, which the template body
// guarantees for the vector main loop and the scalar tail alike.

template <int W>
[[gnu::always_inline]] inline void free_disk_w(const double* cap,
                                               const double* used,
                                               const double* bg,
                                               std::size_t n, double* out) {
  std::size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= n; i += W) {
      const auto c = simd::load<W>(cap + i);
      const auto u = simd::load<W>(used + i);
      const auto b = simd::load<W>(bg + i);
      simd::store<W>(out + i, c - (u + b));
    }
  }
  for (; i < n; ++i) out[i] = cap[i] - (used[i] + bg[i]);
}

void free_disk_scalar(const double* cap, const double* used, const double* bg,
                      std::size_t n, double* out) {
  free_disk_w<1>(cap, used, bg, n, out);
}

#if CLOUDALLOC_SIMD_X86
__attribute__((target("avx2"))) void free_disk_avx2(const double* cap,
                                                    const double* used,
                                                    const double* bg,
                                                    std::size_t n,
                                                    double* out) {
  free_disk_w<4>(cap, used, bg, n, out);
}
__attribute__((target("avx512f"))) void free_disk_avx512(const double* cap,
                                                         const double* used,
                                                         const double* bg,
                                                         std::size_t n,
                                                         double* out) {
  free_disk_w<8>(cap, used, bg, n, out);
}
#endif

void free_disk_batch(const double* cap, const double* used, const double* bg,
                     std::size_t n, double* out) {
#if CLOUDALLOC_SIMD_X86
  switch (simd::active_width()) {
    case 8:
      free_disk_avx512(cap, used, bg, n, out);
      return;
    case 4:
      free_disk_avx2(cap, used, bg, n, out);
      return;
    default:
      break;
  }
#endif
  free_disk_scalar(cap, used, bg, n, out);
}

}  // namespace

ResidualView::ResidualView(const Allocation& alloc) : cloud_(alloc.cloud_) {
  const auto num_servers = static_cast<std::size_t>(cloud_->num_servers());
  used_p_.resize(num_servers);
  used_n_.resize(num_servers);
  used_disk_.resize(num_servers);
  load_p_.resize(num_servers);
  hosted_.resize(num_servers);
  bg_p_.resize(num_servers);
  bg_n_.resize(num_servers);
  bg_disk_.resize(num_servers);
  cap_m_.resize(num_servers);
  keeps_on_.resize(num_servers);
  for (ServerId j : cloud_->server_ids()) {
    const Allocation::ServerAgg& agg = alloc.server_[j];
    used_p_[j] = agg.phi_p;
    used_n_[j] = agg.phi_n;
    used_disk_[j] = agg.disk;
    load_p_[j] = agg.load_p;
    hosted_[j] = static_cast<int>(agg.clients.size());
    const BackgroundLoad& bg = cloud_->server(j).background;
    bg_p_[j] = bg.phi_p;
    bg_n_[j] = bg.phi_n;
    bg_disk_[j] = bg.disk;
    cap_m_[j] = cloud_->server_class_of(j).cap_m;
    keeps_on_[j] = bg.keeps_on ? 1 : 0;
  }
  const auto num_clusters = static_cast<std::size_t>(cloud_->num_clusters());
  contig_base_.resize(num_clusters);
  for (ClusterId k : cloud_->cluster_ids()) {
    const auto& servers = cloud_->cluster(k).servers;
    int base = servers.empty() ? -1 : static_cast<int>(servers.front().value());
    for (std::size_t idx = 0; idx < servers.size() && base >= 0; ++idx) {
      if (servers[idx].value() !=
          static_cast<ServerId::value_type>(base) +
              static_cast<ServerId::value_type>(idx)) {
        base = -1;
      }
    }
    contig_base_[k] = base;
  }
}

bool ResidualView::screen_free_disk(ClusterId k, double need, double eps,
                                    std::vector<std::uint8_t>& ok) const {
  const int base = contig_base_[k];
  if (base < 0) return false;
  const std::size_t n = cloud_->cluster(k).servers.size();
  ok.resize(n);
  const auto b = static_cast<std::size_t>(base);
  thread_local std::vector<double> free_buf;
  if (free_buf.size() < n) free_buf.resize(n);
  free_disk_batch(cap_m_.data() + b, used_disk_.data() + b,
                  bg_disk_.data() + b, n, free_buf.data());
  // Negated form of the scalar reject test (free + eps < need), the exact
  // comparison candidate_ok performs.
  for (std::size_t idx = 0; idx < n; ++idx) {
    ok[idx] = (free_buf[idx] + eps < need) ? 0 : 1;
  }
  return true;
}

void ResidualView::record(const std::vector<Placement>& ps,
                          Undo* undo) const {
  if (undo == nullptr) return;
  undo->entries.clear();
  undo->entries.reserve(ps.size());
  for (const Placement& p : ps) {
    undo->entries.push_back(Undo::Entry{p.server, used_p_[p.server],
                                        used_n_[p.server],
                                        used_disk_[p.server],
                                        load_p_[p.server], hosted_[p.server]});
  }
}

void ResidualView::remove_client(ClientId i, const std::vector<Placement>& ps,
                                 Undo* undo) {
  const Client& c = cloud_->client(i);
  record(ps, undo);
  for (const Placement& p : ps) {
    CHECK(hosted_[p.server] > 0);
    used_p_[p.server] -= p.phi_p;
    used_n_[p.server] -= p.phi_n;
    used_disk_[p.server] -= c.disk;
    load_p_[p.server] -= p.psi * c.lambda_pred * c.alpha_p;
    --hosted_[p.server];
    // Mirror Allocation::remove_footprint's drift guard exactly.
    if (hosted_[p.server] == 0) {
      used_p_[p.server] = used_n_[p.server] = used_disk_[p.server] =
          load_p_[p.server] = 0.0;
    }
  }
}

void ResidualView::add_client(ClientId i, const std::vector<Placement>& ps,
                              Undo* undo) {
  const Client& c = cloud_->client(i);
  record(ps, undo);
  for (const Placement& p : ps) {
    used_p_[p.server] += p.phi_p;
    used_n_[p.server] += p.phi_n;
    used_disk_[p.server] += c.disk;
    load_p_[p.server] += p.psi * c.lambda_pred * c.alpha_p;
    ++hosted_[p.server];
  }
}

void ResidualView::resync_server(const Allocation& alloc, ServerId j) {
  const Allocation::ServerAgg& agg = alloc.server_[j];
  used_p_[j] = agg.phi_p;
  used_n_[j] = agg.phi_n;
  used_disk_[j] = agg.disk;
  load_p_[j] = agg.load_p;
  hosted_[j] = static_cast<int>(agg.clients.size());
}

void ResidualView::restore(const Undo& undo) {
  for (const Undo::Entry& e : undo.entries) {
    used_p_[e.server] = e.used_p;
    used_n_[e.server] = e.used_n;
    used_disk_[e.server] = e.used_disk;
    load_p_[e.server] = e.load_p;
    hosted_[e.server] = e.hosted;
  }
}

}  // namespace cloudalloc::model
