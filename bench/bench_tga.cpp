// §5 Discussion — "scanning IPv6 is hard ... this situation may
// quickly change [with] advances in target generation algorithms."
//
// This bench quantifies that premise on the telescope's own address
// population: candidate hit rates for (a) fully random 128-bit
// addresses, (b) random IIDs under known /64s, and (c) an
// Entropy/IP-style TGA trained on a hitlist sample. The paper's AS #1
// switches to exactly this discovery mode after its May 27, 2021
// hitlist-seeding day.

#include <cstdio>

#include "common.hpp"
#include "scanner/tga.hpp"
#include "util/table.hpp"

namespace {

using namespace v6sonar;

void print_tga() {
  benchx::banner("Discussion: target-generation hit rates vs random probing",
                 "purely random IPv6 scans are futile (~2^-90 hit probability); "
                 "TGA-guided discovery is what makes IPv6 scanning feasible");

  const benchx::WorldMeta meta;
  const auto& actives = meta.telescope().all_addresses();

  // Train on the hitlist (what a scanner can learn), test against the
  // real deployment.
  const auto& hitlist = meta.hitlist().addresses();
  std::vector<net::Ipv6Address> train(hitlist.begin(),
                                      hitlist.begin() + static_cast<std::ptrdiff_t>(
                                                            hitlist.size() / 2));
  const auto model = scanner::EntropyIpModel::learn(train);

  // Random-IID-under-known-/64 baseline: model with the IID nibbles
  // flattened (learned from random-IID variants of the hitlist).
  util::Xoshiro256 rng(3);
  std::vector<net::Ipv6Address> random_iid_seeds;
  random_iid_seeds.reserve(train.size());
  for (const auto& a : train) random_iid_seeds.push_back(a.with_iid(rng()));
  const auto known64_model = scanner::EntropyIpModel::learn(random_iid_seeds);

  // Cluster-enumeration TGA (6Gen-flavoured) on the same training set.
  const auto cluster_model = scanner::ClusterTga::learn(train);

  constexpr std::size_t kCandidates = 200'000;
  const double tga = scanner::tga_hit_rate(model, actives, kCandidates, 7);
  const double known64 = scanner::tga_hit_rate(known64_model, actives, kCandidates, 7);
  const double cluster = scanner::cluster_tga_hit_rate(cluster_model, actives, kCandidates, 7);

  util::TextTable table({"strategy", "model entropy", "hit rate", "probes per hit"});
  auto row = [&](const char* name, const std::string& bits, double rate) {
    table.add_row({name, bits,
                   rate > 0 ? util::fixed(rate * 100.0, 3) + "%" : "0",
                   rate > 0 ? util::with_commas(static_cast<std::uint64_t>(1.0 / rate)) : "inf"});
  };
  row("random 128-bit address", "128.0 bits", 0.0);
  row("random IID in known region", util::fixed(known64_model.total_entropy_bits(), 1) + " bits",
      known64);
  row("Entropy/IP TGA on hitlist", util::fixed(model.total_entropy_bits(), 1) + " bits", tga);
  row("cluster enumeration (6Gen-style)",
      util::with_commas(cluster_model.cluster_count()) + " clusters", cluster);
  std::printf("%s\n", table.render().c_str());
  std::printf("TGA candidates tested: %zu against %zu active addresses\n", kCandidates,
              actives.size());
}

}  // namespace

int main() {
  print_tga();
  return 0;
}
