#include "model/residual.h"

#include <vector>

#include "common/check.h"
#include "common/mathutil.h"

namespace cloudalloc::model {

ResidualView::ResidualView(const Cloud& cloud) : cloud_(&cloud) {
  const auto num_servers = static_cast<std::size_t>(cloud.num_servers());
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
  for (ServerId j : cloud.server_ids()) {
    const BackgroundLoad& bg = cloud.server(j).background;
    bg_p_[j] = bg.phi_p;
    bg_n_[j] = bg.phi_n;
    bg_disk_[j] = bg.disk;
    cap_m_[j] = cloud.server_class_of(j).cap_m;
    keeps_on_[j] = bg.keeps_on ? 1 : 0;
  }
}

std::size_t ResidualView::screen(ClusterId k, const Screen& s,
                                 std::vector<Candidate>& out) const {
  const std::vector<ServerId>& servers = cloud_->cluster(k).servers;
  const std::vector<ServerClassId>& classes = cloud_->class_index();
  if (out.size() < servers.size()) out.resize(servers.size());
  std::size_t n = 0;
  for (const ServerId j : servers) {
    const ServerClassId cls = classes[j.index()];
    const Floors& floors = s.floors[cls.index()];
    const double free_p = free_phi_p(j);
    const double free_n = free_phi_n(j);
    const bool on = (hosted_[j] > 0) | (keeps_on_[j] != 0);  // active(j)
    const bool disk_fits = !(free_disk(j) + kEps < s.disk);
    const bool allowed = (j != s.exclude) & (s.allow_inactive | on);
    const bool quantum_fits =
        floor_fits(floors.p, free_p) & floor_fits(floors.n, free_n);
    out[n] = Candidate{j, cls, on, free_p, free_n};
    n += static_cast<std::size_t>(disk_fits & allowed & quantum_fits);
  }
  return n;
}

ResidualView::Undo::Entry ResidualView::entry(ServerId j) const {
  return Undo::Entry{j, used_p_[j], used_n_[j], used_disk_[j], load_p_[j],
                     hosted_[j]};
}

void ResidualView::record(const std::vector<Placement>& ps,
                          Undo* undo) const {
  if (undo == nullptr) return;
  undo->entries.clear();
  undo->entries.reserve(ps.size());
  for (const Placement& p : ps) undo->entries.push_back(entry(p.server));
}

void ResidualView::save_cluster(ClusterId k, Undo& undo) const {
  const std::vector<ServerId>& servers = cloud_->cluster(k).servers;
  undo.entries.clear();
  undo.entries.reserve(servers.size());
  for (ServerId j : servers) undo.entries.push_back(entry(j));
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
    // An emptied server drops the rounding left by its add/remove history.
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
