// Web-scale session synthesis — the reproduction's stand-in for FinOrg's
// live traffic (DESIGN.md §2).
//
// The generator produces logged-in purchase-portal sessions with:
//   * a date-aware browser popularity model (recent releases dominate,
//     with a straggler tail that keeps multi-year-old versions alive at
//     the <100-row level the paper observed for Chrome 81 / Edge 17);
//   * environment noise per §6.3 (extensions, Firefox about:config,
//     Brave and Tor lookalikes);
//   * a small fraud-browser population with spoofed victim user-agents;
//   * the FinOrg risk tags (Untrusted_IP / Untrusted_Cookie / ATO) with
//     base rates calibrated to Table 4's "All users" row and elevated
//     conditional rates for fraud and privacy-browser sessions.
#pragma once

#include <cstdint>

#include "fraudsim/fraud_browser.h"
#include "traffic/dataset.h"
#include "util/date.h"
#include "util/rng.h"

namespace bp::traffic {

struct TagRates {
  double untrusted_ip = 0.0;
  double untrusted_cookie = 0.0;
  double ato = 0.0;
};

struct TrafficConfig {
  std::uint64_t seed = 20230301;
  std::size_t n_sessions = 205'000;

  // §6.2 / §7.1 training window: March 1 to mid-July 2023 (ending just
  // before the Chrome/Firefox 115 releases, as the paper's Table 3 does).
  bp::util::Date start_date = bp::util::Date::from_ymd(2023, 3, 1);
  bp::util::Date end_date = bp::util::Date::from_ymd(2023, 7, 2);

  // Vendor shares of desktop traffic (remainder is rounded into Chrome).
  double chrome_share = 0.58;
  double edge_share = 0.145;
  double firefox_share = 0.26;
  double edge_legacy_share = 0.004;

  // Popularity decay of a release with age, plus a uniform straggler
  // tail over every available release.
  double release_age_tau_days = 55.0;
  double straggler_tail = 0.018;

  // Environment-noise probabilities (conditioned on vendor).
  double p_duckduckgo = 0.012;        // Chrome-family
  double p_generic_extension = 0.020; // Chrome-family
  double p_ff_no_service_workers = 0.012;
  double p_ff_transform_getters = 0.004;

  // Update inconsistency (§7.1's explanation for low-risk flags): the UA
  // header already reports the next major while the engine still runs the
  // previous build — staged binary rollouts do this for a few days.
  double p_update_inconsistency = 0.028;

  // Privacy browsers presenting upstream UAs.
  double p_brave_standard = 0.0040;   // fraction of ALL sessions
  double p_brave_aggressive = 0.0002;
  double p_tor = 0.0001;

  // Fraud-browser sessions (categories weighted per Table 1 prevalence;
  // includes category 3/4 operators Browser Polygraph cannot see).
  double p_fraud = 0.0031;
  double fraud_cat12_weight = 0.55;   // share of fraud run on cat-1/2 tools

  // Stolen profiles are stale: marketplace inventory was harvested weeks
  // to months before use, so victim UAs skew older than live traffic.
  double victim_staleness_multiplier = 2.5;  // on release_age_tau_days
  double victim_straggler_tail = 0.10;

  // Tag rates by session kind (Table 4 "All users" row emerges from the
  // mixture).
  TagRates benign_rates{0.508, 0.488, 0.0038};
  // Mid-update devices skew toward fresh installs / roaming networks, so
  // their Untrusted_IP / Untrusted_Cookie rates sit above the base rate.
  TagRates update_inconsistency_rates{0.65, 0.62, 0.0040};
  TagRates privacy_rates{0.85, 0.80, 0.0045};
  TagRates fraud_rates{0.95, 0.92, 0.030};
  // Category-1 tools (Linken Sphere tier) are the professionals' choice;
  // their operators complete the takeover within the 72h tag window far
  // more often than commodity category-2 users.
  double fraud_category1_ato = 0.075;
};

class SessionGenerator {
 public:
  explicit SessionGenerator(TrafficConfig config = {});

  // Generate a full dataset.  `stored_indices` defaults to every
  // candidate feature; pass a subset (e.g. the production 28 plus the
  // Appendix-4 extras) to keep large runs memory-lean.
  //
  // Batch generation is sharded: sessions are produced in fixed-size
  // blocks of kGenerateShard, each drawing from its own RNG stream
  // split off the config seed, and the shards run in parallel on the
  // bp::util thread pool.  Because the shard decomposition and streams
  // depend only on the seed, the dataset is byte-identical at any
  // BP_THREADS setting.  (The shard streams differ from the streaming
  // next_session() stream; session ids, which are a pure function of
  // the row index, coincide between the two paths.)
  Dataset generate();
  Dataset generate(std::vector<std::size_t> stored_indices);

  // One session at a time (streaming use; examples use this).
  SessionRecord next_session(const std::vector<std::size_t>& stored_indices);

  const TrafficConfig& config() const noexcept { return config_; }

  // Fixed batch shard size (sessions per RNG stream).
  static constexpr std::size_t kGenerateShard = 1024;

 private:
  // Popularity decay of a sampled release: live traffic's, or the
  // slower one of a stolen victim profile.
  enum class Decay : std::uint8_t { kLive, kVictim };

  // The releases one (decay, vendor, day of the window) can draw: the
  // database's candidates in database order, their exp(-age / tau)
  // weights and the weights' total.  Built once per generator from the
  // immutable ReleaseDatabase.
  struct ReleaseChoice {
    // into release_pool_, weight_pool_ and prefix_pool_
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  SessionRecord synthesize(const std::vector<std::size_t>& stored_indices,
                           bp::util::Rng& rng, std::uint64_t session_index,
                           browser::CandidateValues& candidates);
  // `candidates` is the caller's reused extraction buffer.
  SessionRecord make_benign(const std::vector<std::size_t>& stored_indices,
                            bp::util::Date date, bp::util::Rng& rng,
                            std::uint64_t session_index,
                            browser::CandidateValues& candidates);
  SessionRecord make_privacy(const std::vector<std::size_t>& stored_indices,
                             bp::util::Date date, bool aggressive_brave,
                             bool tor, bp::util::Rng& rng,
                             std::uint64_t session_index,
                             browser::CandidateValues& candidates);
  SessionRecord make_fraud(const std::vector<std::size_t>& stored_indices,
                           bp::util::Date date, bp::util::Rng& rng,
                           std::uint64_t session_index);

  const browser::BrowserRelease* sample_release(ua::Vendor vendor,
                                                bp::util::Date date,
                                                Decay decay,
                                                double straggler_tail,
                                                bp::util::Rng& rng) const;
  ua::Vendor sample_vendor(bp::util::Rng& rng);
  void assign_tags(SessionRecord& record, bp::util::Rng& rng);
  std::string session_id_for(std::uint64_t session_index) const;
  // Pre-rendered strings of a database release: its UA header on one of
  // the two OSes sessions draw (Windows 10, macOS Sonoma) and its label.
  const std::string& user_agent_of(const browser::BrowserRelease& release,
                                   ua::Os os) const;
  const std::string& label_of(const browser::BrowserRelease& release) const;

  TrafficConfig config_;
  bp::util::Rng rng_;
  std::uint64_t session_counter_ = 0;
  // next_session's extraction buffer; generate() keeps one per shard.
  browser::CandidateValues candidates_;

  std::vector<ReleaseChoice> release_choices_;  // [decay][vendor][day]
  std::vector<const browser::BrowserRelease*> release_pool_;
  std::vector<double> weight_pool_;
  // Per choice, util::weighted_prefix_sums of its weights.
  std::vector<double> prefix_pool_;
  std::vector<std::string> user_agents_;  // [release][os slot]
  std::vector<std::string> labels_;       // [release]
};

// Convenience: the candidate indices worth persisting for the paper's
// experiments — the production 28 plus every Appendix-4 extension
// feature (42 total).
std::vector<std::size_t> experiment_feature_indices();

}  // namespace bp::traffic
