#include "traffic/session_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <span>

#include "browser/engine_timelines.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace bp::traffic {

namespace {

using browser::Environment;
using browser::Modifier;
using bp::util::Date;

// sample_vendor's vendors are the first four enumerators; the release
// tables cover exactly those, for each of the two Decay values.
constexpr std::size_t kTableVendors = 4;
constexpr std::size_t kDecays = 2;
static_assert(static_cast<std::size_t>(ua::Vendor::kChrome) < kTableVendors &&
              static_cast<std::size_t>(ua::Vendor::kFirefox) < kTableVendors &&
              static_cast<std::size_t>(ua::Vendor::kEdge) < kTableVendors &&
              static_cast<std::size_t>(ua::Vendor::kEdgeLegacy) <
                  kTableVendors);

// The OSes a generated session runs on; user_agents_ holds one string
// per release for each.
constexpr ua::Os kSessionOses[] = {ua::Os::kWindows10, ua::Os::kMacSonoma};

std::vector<std::int32_t> store_features(
    const browser::CandidateValues& all,
    const std::vector<std::size_t>& stored_indices) {
  std::vector<std::int32_t> out;
  out.reserve(stored_indices.size());
  for (std::size_t idx : stored_indices) {
    out.push_back(static_cast<std::int32_t>(all[idx]));
  }
  return out;
}

}  // namespace

std::vector<std::size_t> experiment_feature_indices() {
  const auto& catalog = browser::FeatureCatalog::instance();
  std::vector<std::size_t> indices = catalog.final_indices();
  for (std::size_t idx : catalog.appendix4_extension(42)) {
    if (std::find(indices.begin(), indices.end(), idx) == indices.end()) {
      indices.push_back(idx);
    }
  }
  return indices;
}

SessionGenerator::SessionGenerator(TrafficConfig config)
    : config_(config), rng_(config.seed) {
  const auto releases = browser::ReleaseDatabase::instance().releases();
  for (const browser::BrowserRelease& r : releases) {
    for (ua::Os os : kSessionOses) {
      user_agents_.push_back(ua::format_user_agent(r.user_agent(os)));
    }
    labels_.push_back(r.label());
  }

  // One ReleaseChoice per (decay, vendor, day): the vendor's releases
  // out by that day in database order, their popularity weights, and the
  // weights' total summed in the order Rng::weighted sums.
  const int days = std::max(config_.end_date - config_.start_date, 0) + 1;
  const double taus[kDecays] = {
      config_.release_age_tau_days,
      config_.release_age_tau_days * config_.victim_staleness_multiplier};
  release_choices_.reserve(kDecays * kTableVendors *
                           static_cast<std::size_t>(days));
  for (const double tau_days : taus) {
    for (std::size_t v = 0; v < kTableVendors; ++v) {
      for (int day = 0; day < days; ++day) {
        const Date date = config_.start_date + day;
        ReleaseChoice choice;
        choice.begin = static_cast<std::uint32_t>(release_pool_.size());
        for (const browser::BrowserRelease& r : releases) {
          if (static_cast<std::size_t>(r.vendor) != v ||
              r.release_date > date) {
            continue;
          }
          const double age_days = static_cast<double>(date - r.release_date);
          const double weight = std::exp(-age_days / tau_days);
          release_pool_.push_back(&r);
          weight_pool_.push_back(weight);
          choice.total += weight > 0.0 ? weight : 0.0;
        }
        choice.count =
            static_cast<std::uint32_t>(release_pool_.size()) - choice.begin;
        release_choices_.push_back(choice);
      }
    }
  }
}

const std::string& SessionGenerator::user_agent_of(
    const browser::BrowserRelease& release, ua::Os os) const {
  assert(os == kSessionOses[0] || os == kSessionOses[1]);
  const auto index = static_cast<std::size_t>(
      &release - browser::ReleaseDatabase::instance().releases().data());
  return user_agents_[std::size(kSessionOses) * index +
                      (os == kSessionOses[1] ? 1 : 0)];
}

const std::string& SessionGenerator::label_of(
    const browser::BrowserRelease& release) const {
  return labels_[static_cast<std::size_t>(
      &release - browser::ReleaseDatabase::instance().releases().data())];
}

std::string SessionGenerator::session_id_for(
    std::uint64_t session_index) const {
  // Opaque and randomized (Appendix A): hash of the row index and the
  // seed, never derived from any session attribute.  Index-keyed so the
  // sharded batch path and the streaming path agree.
  const std::uint64_t raw =
      bp::util::mix64(config_.seed ^ (0x5E551D00ULL + session_index));
  return bp::util::to_hex(raw);
}

ua::Vendor SessionGenerator::sample_vendor(bp::util::Rng& rng) {
  const double weights[4] = {config_.chrome_share, config_.edge_share,
                             config_.firefox_share, config_.edge_legacy_share};
  switch (rng.weighted(std::span<const double>(weights, 4))) {
    case 1:
      return ua::Vendor::kEdge;
    case 2:
      return ua::Vendor::kFirefox;
    case 3:
      return ua::Vendor::kEdgeLegacy;
    default:
      return ua::Vendor::kChrome;
  }
}

const browser::BrowserRelease* SessionGenerator::sample_release(
    ua::Vendor vendor, Date date, Decay decay, double straggler_tail,
    bp::util::Rng& rng) const {
  const auto day = static_cast<std::size_t>(date - config_.start_date);
  const std::size_t days = release_choices_.size() / (kDecays * kTableVendors);
  assert(static_cast<std::size_t>(vendor) < kTableVendors && day < days);
  const ReleaseChoice& choice =
      release_choices_[(static_cast<std::size_t>(decay) * kTableVendors +
                        static_cast<std::size_t>(vendor)) *
                           days +
                       day];
  if (choice.count == 0) return nullptr;
  const browser::BrowserRelease* const* candidates =
      release_pool_.data() + choice.begin;

  if (rng.chance(straggler_tail)) {
    // Straggler: any historical release, uniformly — this is what keeps
    // Chrome 81-era UAs alive at double-digit row counts.
    return candidates[rng.below(choice.count)];
  }

  const std::size_t pick = rng.weighted(
      std::span<const double>(weight_pool_.data() + choice.begin,
                              choice.count),
      choice.total);
  return candidates[pick < choice.count ? pick : choice.count - 1];
}

void SessionGenerator::assign_tags(SessionRecord& record, bp::util::Rng& rng) {
  const TagRates* rates = &config_.benign_rates;
  switch (record.kind) {
    case SessionKind::kBenign:
    case SessionKind::kBenignModified:
      rates = &config_.benign_rates;
      break;
    case SessionKind::kPrivacyBrowser:
      rates = &config_.privacy_rates;
      break;
    case SessionKind::kFraudBrowser:
      rates = &config_.fraud_rates;
      break;
  }
  record.untrusted_ip = rng.chance(rates->untrusted_ip);
  record.untrusted_cookie = rng.chance(rates->untrusted_cookie);
  record.ato = rng.chance(rates->ato);
}

SessionRecord SessionGenerator::make_benign(
    const std::vector<std::size_t>& stored_indices, Date date,
    bp::util::Rng& rng, std::uint64_t session_index,
    browser::CandidateValues& candidates) {
  SessionRecord record;
  record.date = date;
  record.session_id = session_id_for(session_index);

  const ua::Vendor vendor = sample_vendor(rng);
  const auto* release = sample_release(vendor, date, Decay::kLive,
                                       config_.straggler_tail, rng);
  assert(release != nullptr);

  Environment env;
  env.release = release;
  env.os = rng.chance(0.78) ? ua::Os::kWindows10 : ua::Os::kMacSonoma;
  env.session_salt = rng.next();

  record.kind = SessionKind::kBenign;
  if (release->engine == browser::Engine::kBlink) {
    if (rng.chance(config_.p_duckduckgo)) {
      env.modifiers = env.modifiers | Modifier::kDuckDuckGoExtension;
      record.kind = SessionKind::kBenignModified;
    }
    if (rng.chance(config_.p_generic_extension)) {
      env.modifiers = env.modifiers | Modifier::kGenericExtension;
      record.kind = SessionKind::kBenignModified;
    }
  } else if (release->engine == browser::Engine::kGecko) {
    if (rng.chance(config_.p_ff_no_service_workers)) {
      env.modifiers = env.modifiers | Modifier::kFirefoxNoServiceWorkers;
      record.kind = SessionKind::kBenignModified;
    }
    if (rng.chance(config_.p_ff_transform_getters)) {
      env.modifiers = env.modifiers | Modifier::kFirefoxTransformGetters;
      record.kind = SessionKind::kBenignModified;
    }
  }

  ua::UserAgent claimed = env.presented_user_agent();

  // Update inconsistency: the UA header reports the next major while the
  // engine still runs this build (staged rollout windows).  Only applies
  // when the next major exists.
  const browser::BrowserRelease* presented = release;
  if (rng.chance(config_.p_update_inconsistency)) {
    const auto* next = browser::ReleaseDatabase::instance().find(
        claimed.vendor, claimed.major_version + 1);
    if (next != nullptr && next->release_date <= date) {
      ++claimed.major_version;
      presented = next;
    }
  }
  const bool mid_update = presented != release;

  assert(claimed == presented->user_agent(env.os));
  record.claimed = claimed;
  record.user_agent = user_agent_of(*presented, env.os);
  browser::extract_candidates(env, candidates);
  record.features = store_features(candidates, stored_indices);
  record.origin = label_of(*release);
  if (mid_update) {
    record.origin += " (mid-update)";
    record.untrusted_ip =
        rng.chance(config_.update_inconsistency_rates.untrusted_ip);
    record.untrusted_cookie =
        rng.chance(config_.update_inconsistency_rates.untrusted_cookie);
    record.ato = rng.chance(config_.update_inconsistency_rates.ato);
  } else {
    assign_tags(record, rng);
  }
  return record;
}

SessionRecord SessionGenerator::make_privacy(
    const std::vector<std::size_t>& stored_indices, Date date,
    bool aggressive_brave, bool tor, bp::util::Rng& rng,
    std::uint64_t session_index, browser::CandidateValues& candidates) {
  SessionRecord record;
  record.date = date;
  record.session_id = session_id_for(session_index);
  record.kind = SessionKind::kPrivacyBrowser;

  const auto& db = browser::ReleaseDatabase::instance();
  Environment env;
  env.os = rng.chance(0.7) ? ua::Os::kWindows10 : ua::Os::kMacSonoma;
  env.session_salt = rng.next();

  if (tor) {
    // Tor Browser tracks Firefox ESR, roughly a year behind current
    // (§6.3 found it presenting Firefox 102 while current was ~113).
    env.release = db.find(ua::Vendor::kFirefox, 102);
    env.modifiers = env.modifiers | Modifier::kTorPatchset;
    record.origin = "Tor Browser (ESR 102 base)";
  } else {
    // Brave tracks current Chromium closely.
    const auto* latest = db.latest(ua::Vendor::kChrome, date);
    env.release = latest;
    env.modifiers = env.modifiers | (aggressive_brave
                                         ? Modifier::kBraveAggressiveShields
                                         : Modifier::kBraveStandardShields);
    record.origin = aggressive_brave ? "Brave (aggressive shields)"
                                     : "Brave (standard shields)";
  }
  assert(env.release != nullptr);

  const ua::UserAgent claimed = env.presented_user_agent();
  assert(claimed == env.release->user_agent(env.os));
  record.claimed = claimed;
  record.user_agent = user_agent_of(*env.release, env.os);
  browser::extract_candidates(env, candidates);
  record.features = store_features(candidates, stored_indices);
  assign_tags(record, rng);
  return record;
}

SessionRecord SessionGenerator::make_fraud(
    const std::vector<std::size_t>& stored_indices, Date date,
    bp::util::Rng& rng, std::uint64_t session_index) {
  SessionRecord record;
  record.date = date;
  record.session_id = session_id_for(session_index);
  record.kind = SessionKind::kFraudBrowser;

  // Pick a tool: categories 1/2 with weight fraud_cat12_weight, the
  // internally-consistent categories 3/4 otherwise.
  const auto roster = fraudsim::table1_roster();
  std::vector<const fraudsim::FraudBrowserModel*> cat12;
  std::vector<const fraudsim::FraudBrowserModel*> cat34;
  for (const auto& m : roster) {
    if (m.release_date > date) continue;
    if (m.category == fraudsim::FraudCategory::kCategory1 ||
        m.category == fraudsim::FraudCategory::kCategory2) {
      cat12.push_back(&m);
    } else {
      cat34.push_back(&m);
    }
  }
  const bool use_cat12 =
      !cat12.empty() && (cat34.empty() || rng.chance(config_.fraud_cat12_weight));
  const auto& pool = use_cat12 ? cat12 : cat34;
  const auto* model = pool[rng.below(pool.size())];

  // The victim's user-agent: drawn from the population's popularity model
  // but skewed older — marketplace profiles were harvested weeks to
  // months before the fraudster loads them.
  const ua::Vendor vendor = sample_vendor(rng);
  const auto* victim_release = sample_release(
      vendor, date, Decay::kVictim, config_.victim_straggler_tail, rng);
  assert(victim_release != nullptr);
  const ua::UserAgent victim_ua = victim_release->user_agent(
      rng.chance(0.78) ? ua::Os::kWindows10 : ua::Os::kMacSonoma);

  const fraudsim::FraudProfile profile =
      fraudsim::make_profile(*model, victim_ua, rng);

  record.claimed = profile.claimed_ua;
  record.user_agent = ua::format_user_agent(profile.claimed_ua);
  record.features = store_features(profile.candidate_values, stored_indices);
  record.origin = model->name;
  assign_tags(record, rng);
  if (model->category == fraudsim::FraudCategory::kCategory1) {
    record.ato = rng.chance(config_.fraud_category1_ato);
  }
  return record;
}

SessionRecord SessionGenerator::synthesize(
    const std::vector<std::size_t>& stored_indices, bp::util::Rng& rng,
    std::uint64_t session_index, browser::CandidateValues& candidates) {
  const int span_days =
      std::max(config_.end_date - config_.start_date, 0);
  const Date date =
      config_.start_date + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(span_days + 1)));

  const double p_privacy = config_.p_brave_standard +
                           config_.p_brave_aggressive + config_.p_tor;
  const double roll = rng.uniform();
  if (roll < config_.p_fraud) {
    return make_fraud(stored_indices, date, rng, session_index);
  }
  if (roll < config_.p_fraud + p_privacy) {
    const double r = rng.uniform() * p_privacy;
    if (r < config_.p_tor) {
      return make_privacy(stored_indices, date, false, true, rng,
                          session_index, candidates);
    }
    return make_privacy(stored_indices, date,
                        r < config_.p_tor + config_.p_brave_aggressive, false,
                        rng, session_index, candidates);
  }
  return make_benign(stored_indices, date, rng, session_index, candidates);
}

SessionRecord SessionGenerator::next_session(
    const std::vector<std::size_t>& stored_indices) {
  return synthesize(stored_indices, rng_, session_counter_++, candidates_);
}

Dataset SessionGenerator::generate(std::vector<std::size_t> stored_indices) {
  Dataset dataset(std::move(stored_indices));
  std::vector<SessionRecord>& records = dataset.records();
  records.resize(config_.n_sessions);

  // Fixed-size shards, each with an RNG stream split off the seed: the
  // decomposition never depends on the thread count, so the synthetic
  // corpus — and every model trained from it — is reproducible at any
  // BP_THREADS setting.
  const bp::util::Rng root(config_.seed);
  bp::util::parallel_for(
      std::size_t{0}, config_.n_sessions, kGenerateShard,
      [&](std::size_t begin, std::size_t end) {
        const std::size_t shard = begin / kGenerateShard;
        bp::util::Rng shard_rng = root.split(shard);
        browser::CandidateValues candidates;
        for (std::size_t i = begin; i < end; ++i) {
          records[i] =
              synthesize(dataset.stored_indices(), shard_rng, i, candidates);
        }
      });
  return dataset;
}

Dataset SessionGenerator::generate() {
  const auto& catalog = browser::FeatureCatalog::instance();
  std::vector<std::size_t> all(catalog.candidate_count());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return generate(std::move(all));
}

}  // namespace bp::traffic
