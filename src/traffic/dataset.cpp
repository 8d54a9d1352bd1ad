#include "traffic/dataset.h"

#include <cassert>
#include <map>

#include "util/strings.h"

namespace bp::traffic {

ml::Matrix Dataset::feature_matrix(
    const std::vector<std::size_t>& wanted) const {
  // Map candidate index -> stored position.
  std::map<std::size_t, std::size_t> position;
  for (std::size_t i = 0; i < stored_indices_.size(); ++i) {
    position[stored_indices_[i]] = i;
  }
  std::vector<std::size_t> cols;
  cols.reserve(wanted.size());
  for (std::size_t idx : wanted) {
    const auto it = position.find(idx);
    assert(it != position.end() && "feature not stored in this dataset");
    cols.push_back(it->second);
  }

  ml::Matrix out(records_.size(), cols.size());
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const auto& features = records_[r].features;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      out(r, j) = static_cast<double>(features[cols[j]]);
    }
  }
  return out;
}

ml::Matrix Dataset::feature_matrix() const {
  return feature_matrix(stored_indices_);
}

std::vector<std::uint32_t> Dataset::ua_keys() const {
  std::vector<std::uint32_t> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(r.claimed.key());
  return out;
}

std::vector<std::string> Dataset::fingerprint_strings() const {
  std::vector<std::string> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    std::string s;
    s.reserve(r.features.size() * 4);
    for (std::int32_t v : r.features) {
      s += std::to_string(v);
      s += ',';
    }
    out.push_back(std::move(s));
  }
  return out;
}

Dataset Dataset::slice(bp::util::Date from, bp::util::Date to) const {
  Dataset out(stored_indices_);
  for (const auto& r : records_) {
    if (r.date >= from && r.date <= to) out.add(r);
  }
  return out;
}

bp::util::CsvTable Dataset::to_csv_table() const {
  bp::util::CsvTable table;
  table.header = {"session_id", "date",       "user_agent",
                  "untrusted_ip", "untrusted_cookie", "ato",
                  "kind",       "origin"};
  for (std::size_t idx : stored_indices_) {
    table.header.push_back("f" + std::to_string(idx));
  }
  for (const auto& r : records_) {
    std::vector<std::string> row = {
        r.session_id,
        r.date.to_string(),
        r.user_agent,
        r.untrusted_ip ? "1" : "0",
        r.untrusted_cookie ? "1" : "0",
        r.ato ? "1" : "0",
        std::to_string(static_cast<int>(r.kind)),
        r.origin,
    };
    for (std::int32_t v : r.features) row.push_back(std::to_string(v));
    table.rows.push_back(std::move(row));
  }
  return table;
}

Dataset Dataset::from_csv_table(const bp::util::CsvTable& table) {
  constexpr std::size_t kFixedColumns = 8;
  std::vector<std::size_t> indices;
  for (std::size_t c = kFixedColumns; c < table.header.size(); ++c) {
    const auto parsed = bp::util::parse_int(
        std::string_view(table.header[c]).substr(1));
    assert(parsed.has_value());
    indices.push_back(static_cast<std::size_t>(*parsed));
  }

  Dataset out(std::move(indices));
  for (const auto& row : table.rows) {
    assert(row.size() == table.header.size());
    SessionRecord r;
    r.session_id = row[0];
    // Date parse: YYYY-MM-DD.
    const auto parts = bp::util::split(row[1], '-');
    assert(parts.size() == 3);
    r.date = bp::util::Date::from_ymd(
        static_cast<int>(*bp::util::parse_int(parts[0])),
        static_cast<unsigned>(*bp::util::parse_int(parts[1])),
        static_cast<unsigned>(*bp::util::parse_int(parts[2])));
    r.user_agent = row[2];
    r.claimed = ua::parse_user_agent(r.user_agent);
    r.untrusted_ip = row[3] == "1";
    r.untrusted_cookie = row[4] == "1";
    r.ato = row[5] == "1";
    r.kind = static_cast<SessionKind>(*bp::util::parse_int(row[6]));
    r.origin = row[7];
    for (std::size_t c = kFixedColumns; c < row.size(); ++c) {
      r.features.push_back(
          static_cast<std::int32_t>(*bp::util::parse_int(row[c])));
    }
    out.add(std::move(r));
  }
  return out;
}

}  // namespace bp::traffic
