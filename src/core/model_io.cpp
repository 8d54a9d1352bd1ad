#include "core/model_io.h"

#include <unistd.h>

#include <charconv>
#include <cstdio>

#include "util/fault.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/strings.h"

namespace bp::core {

namespace {

constexpr std::string_view kHeader = "browser-polygraph-model v1";
constexpr std::string_view kChecksumPrefix = "checksum ";

void emit_vector(std::string& out, std::string_view name,
                 const std::vector<double>& values) {
  out += name;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.17g", v);
    out += buf;
  }
  out += '\n';
}

void emit_matrix(std::string& out, std::string_view name,
                 const ml::Matrix& m) {
  out += name;
  out += ' ';
  out += std::to_string(m.rows());
  out += ' ';
  out += std::to_string(m.cols());
  out += '\n';
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g%c", row[c],
                    c + 1 == m.cols() ? '\n' : ' ');
      out += buf;
    }
  }
}

// Line-cursor over the serialized text that remembers the 1-based
// number of the line it last returned, so parse errors can point at
// the exact spot in the file.
class Reader {
 public:
  explicit Reader(std::string_view text) : lines_(bp::util::split(text, '\n')) {}

  std::optional<std::string_view> next() {
    while (pos_ < lines_.size()) {
      const std::string_view line = bp::util::trim(lines_[pos_++]);
      if (!line.empty()) return line;
    }
    return std::nullopt;
  }

  // Line number of the last line next() returned (1-based); after an
  // exhausted next(), the line just past the end — where the missing
  // content should have been.
  std::size_t line() const noexcept { return pos_; }

 private:
  std::vector<std::string_view> lines_;
  std::size_t pos_ = 0;
};

std::optional<std::vector<double>> parse_vector(std::string_view line,
                                                std::string_view name) {
  if (!bp::util::starts_with(line, name)) return std::nullopt;
  std::vector<double> out;
  for (std::string_view tok : bp::util::split(line.substr(name.size()), ' ')) {
    tok = bp::util::trim(tok);
    if (tok.empty()) continue;
    const auto v = bp::util::parse_double(tok);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

LoadError error_at(LoadErrorCode code, std::size_t line,
                   std::string_view section) {
  return LoadError{code, line, std::string(section)};
}

// Matrix body parse: the header line was already consumed and matched
// `name`.  Distinguishes truncation (file ends mid-matrix) from
// malformed rows.
std::optional<ml::Matrix> parse_matrix(Reader& reader, std::string_view header,
                                       std::string_view name,
                                       LoadError& error) {
  const auto dims = bp::util::split(
      bp::util::trim(header.substr(name.size())), ' ');
  const auto bad_header = [&] {
    error = error_at(LoadErrorCode::kBadSection, reader.line(), name);
    return std::nullopt;
  };
  if (dims.size() != 2) return bad_header();
  const auto rows = bp::util::parse_int(dims[0]);
  const auto cols = bp::util::parse_int(dims[1]);
  if (!rows || !cols || *rows < 0 || *cols <= 0) return bad_header();

  ml::Matrix m(static_cast<std::size_t>(*rows), static_cast<std::size_t>(*cols));
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto line = reader.next();
    if (!line) {
      error = error_at(LoadErrorCode::kTruncated, reader.line(), name);
      return std::nullopt;
    }
    const auto values = parse_vector(*line, "");
    if (!values || values->size() != m.cols()) {
      error = error_at(LoadErrorCode::kBadSection, reader.line(), name);
      return std::nullopt;
    }
    std::copy(values->begin(), values->end(), m.row(r).begin());
  }
  return m;
}

std::optional<std::uint64_t> parse_hex64(std::string_view s) {
  s = bp::util::trim(s);
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value, 16);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

// Locate the checksum footer: the last non-empty line must read
// "checksum <hex>".  Returns the payload (everything before that line)
// and the declared checksum, or a typed error.
struct Footer {
  std::string_view payload;
  std::uint64_t declared = 0;
};

std::optional<Footer> split_footer(std::string_view text, LoadError& error) {
  std::size_t end = text.size();
  while (end > 0 && (text[end - 1] == '\n' || text[end - 1] == '\r' ||
                     text[end - 1] == ' ' || text[end - 1] == '\t')) {
    --end;
  }
  const std::size_t line_start = text.rfind('\n', end == 0 ? 0 : end - 1);
  const std::size_t footer_begin =
      line_start == std::string_view::npos ? 0 : line_start + 1;
  const std::string_view footer =
      bp::util::trim(text.substr(footer_begin, end - footer_begin));
  if (!bp::util::starts_with(footer, kChecksumPrefix)) {
    error = error_at(LoadErrorCode::kChecksumMissing, 0, "checksum");
    return std::nullopt;
  }
  const auto declared = parse_hex64(footer.substr(kChecksumPrefix.size()));
  if (!declared) {
    error = error_at(LoadErrorCode::kChecksumMissing, 0, "checksum");
    return std::nullopt;
  }
  return Footer{text.substr(0, footer_begin), *declared};
}

}  // namespace

std::string_view load_error_code_name(LoadErrorCode code) noexcept {
  switch (code) {
    case LoadErrorCode::kFileMissing: return "file_missing";
    case LoadErrorCode::kBadHeader: return "bad_header";
    case LoadErrorCode::kTruncated: return "truncated";
    case LoadErrorCode::kBadSection: return "bad_section";
    case LoadErrorCode::kChecksumMissing: return "checksum_missing";
    case LoadErrorCode::kChecksumMismatch: return "checksum_mismatch";
    case LoadErrorCode::kInjectedFault: return "injected_fault";
  }
  return "unknown";
}

std::string LoadError::message() const {
  std::string out(load_error_code_name(code));
  if (line > 0) {
    out += " at line ";
    out += std::to_string(line);
  }
  if (!section.empty()) {
    out += " (";
    out += section;
    out += ')';
  }
  return out;
}

std::uint64_t model_checksum(std::string_view payload) noexcept {
  return bp::util::fnv1a(payload);
}

std::string with_model_checksum(std::string payload) {
  // Strip an existing footer so re-sealing is idempotent.
  const std::size_t footer = payload.rfind("\nchecksum ");
  if (footer != std::string::npos) {
    payload.resize(footer + 1);
  } else if (bp::util::starts_with(payload, kChecksumPrefix)) {
    payload.clear();
  }
  if (!payload.empty() && payload.back() != '\n') payload += '\n';
  const std::uint64_t sum = model_checksum(payload);
  payload += kChecksumPrefix;
  payload += bp::util::to_hex(sum);
  payload += '\n';
  return payload;
}

std::string serialize_model(const Polygraph& model) {
  std::string out;
  out += kHeader;
  out += '\n';

  const PolygraphConfig& config = model.config();
  out += "features";
  for (std::size_t idx : config.feature_indices) {
    out += ' ';
    out += std::to_string(idx);
  }
  out += '\n';
  out += "pca_components " + std::to_string(config.pca_components) + '\n';
  out += "k " + std::to_string(config.k) + '\n';
  out += "vendor_distance " + std::to_string(config.vendor_distance) + '\n';
  out += "version_divisor " + std::to_string(config.version_divisor) + '\n';

  emit_vector(out, "scaler_means", model.scaler().means());
  emit_vector(out, "scaler_stddevs", model.scaler().stddevs());
  emit_vector(out, "pca_mean", model.pca().mean());
  emit_vector(out, "pca_eigenvalues", model.pca().eigenvalues());
  emit_matrix(out, "pca_matrix", model.pca().components());
  emit_matrix(out, "centroids", model.kmeans().centroids());

  out += "table " + std::to_string(model.cluster_table().size()) + '\n';
  for (const auto& [key, cluster] : model.cluster_table().entries()) {
    const auto vendor = static_cast<int>(key >> 16);
    const auto version = static_cast<int>(key & 0xffff);
    out += std::to_string(vendor) + ' ' + std::to_string(version) + ' ' +
           std::to_string(cluster) + '\n';
  }
  return with_model_checksum(std::move(out));
}

LoadResult deserialize_model(const std::string& text) {
  // Integrity first: a file that fails the checksum is not worth
  // structural diagnostics — its content is untrustworthy.
  LoadError error;
  const auto footer = split_footer(text, error);
  if (!footer) return error;
  if (model_checksum(footer->payload) != footer->declared) {
    return error_at(LoadErrorCode::kChecksumMismatch, 0, "checksum");
  }

  Reader reader(footer->payload);
  const auto header = reader.next();
  if (!header) {
    return error_at(LoadErrorCode::kTruncated, reader.line(), "header");
  }
  if (*header != kHeader) {
    return error_at(LoadErrorCode::kBadHeader, reader.line(), "header");
  }

  PolygraphConfig config;
  config.feature_indices.clear();

  auto line = reader.next();
  if (!line) {
    return error_at(LoadErrorCode::kTruncated, reader.line(), "features");
  }
  if (!bp::util::starts_with(*line, "features")) {
    return error_at(LoadErrorCode::kBadSection, reader.line(), "features");
  }
  for (std::string_view tok :
       bp::util::split(line->substr(sizeof("features") - 1), ' ')) {
    tok = bp::util::trim(tok);
    if (tok.empty()) continue;
    const auto v = bp::util::parse_int(tok);
    if (!v || *v < 0) {
      return error_at(LoadErrorCode::kBadSection, reader.line(), "features");
    }
    config.feature_indices.push_back(static_cast<std::size_t>(*v));
  }
  const std::size_t n_features = config.feature_indices.size();

  LoadError int_error;
  auto read_int = [&](std::string_view name) -> std::optional<std::int64_t> {
    const auto l = reader.next();
    if (!l) {
      int_error = error_at(LoadErrorCode::kTruncated, reader.line(), name);
      return std::nullopt;
    }
    if (!bp::util::starts_with(*l, name)) {
      int_error = error_at(LoadErrorCode::kBadSection, reader.line(), name);
      return std::nullopt;
    }
    const auto v = bp::util::parse_int(bp::util::trim(l->substr(name.size())));
    if (!v) {
      int_error = error_at(LoadErrorCode::kBadSection, reader.line(), name);
    }
    return v;
  };
  const auto pca_components = read_int("pca_components");
  if (!pca_components) return int_error;
  const auto k = read_int("k");
  if (!k) return int_error;
  const auto vendor_distance = read_int("vendor_distance");
  if (!vendor_distance) return int_error;
  const auto version_divisor = read_int("version_divisor");
  if (!version_divisor) return int_error;
  config.pca_components = static_cast<std::size_t>(*pca_components);
  config.k = static_cast<std::size_t>(*k);
  config.vendor_distance = static_cast<int>(*vendor_distance);
  config.version_divisor = static_cast<int>(*version_divisor);

  auto next_vector = [&](std::string_view name, std::size_t expected_size,
                         LoadError& err) -> std::optional<std::vector<double>> {
    const auto l = reader.next();
    if (!l) {
      err = error_at(LoadErrorCode::kTruncated, reader.line(), name);
      return std::nullopt;
    }
    auto values = parse_vector(*l, name);
    if (!values || values->size() != expected_size) {
      err = error_at(LoadErrorCode::kBadSection, reader.line(), name);
      return std::nullopt;
    }
    return values;
  };
  LoadError vec_error;
  const auto means = next_vector("scaler_means", n_features, vec_error);
  if (!means) return vec_error;
  const auto stddevs = next_vector("scaler_stddevs", n_features, vec_error);
  if (!stddevs) return vec_error;
  const auto pca_mean = next_vector("pca_mean", n_features, vec_error);
  if (!pca_mean) return vec_error;

  // Eigenvalue count equals the retained component count, which fit()
  // may have clamped below config.pca_components — validate against the
  // matrix instead, below.
  const auto eig_line = reader.next();
  if (!eig_line) {
    return error_at(LoadErrorCode::kTruncated, reader.line(),
                    "pca_eigenvalues");
  }
  const auto eigenvalues = parse_vector(*eig_line, "pca_eigenvalues");
  if (!eigenvalues) {
    return error_at(LoadErrorCode::kBadSection, reader.line(),
                    "pca_eigenvalues");
  }

  auto matrix_header = reader.next();
  if (!matrix_header) {
    return error_at(LoadErrorCode::kTruncated, reader.line(), "pca_matrix");
  }
  if (!bp::util::starts_with(*matrix_header, "pca_matrix")) {
    return error_at(LoadErrorCode::kBadSection, reader.line(), "pca_matrix");
  }
  LoadError matrix_error;
  const auto pca_matrix =
      parse_matrix(reader, *matrix_header, "pca_matrix", matrix_error);
  if (!pca_matrix) return matrix_error;
  // Cross-section consistency: the projection must map the model's
  // feature space (rows = features, columns = retained components).
  // fit() stores the full eigenvalue spectrum (all n_features of them)
  // but only the retained component columns, so the spectrum must at
  // least cover the retained components.
  if (pca_matrix->rows() != n_features ||
      pca_matrix->cols() > eigenvalues->size()) {
    return error_at(LoadErrorCode::kBadSection, reader.line(), "pca_matrix");
  }

  matrix_header = reader.next();
  if (!matrix_header) {
    return error_at(LoadErrorCode::kTruncated, reader.line(), "centroids");
  }
  if (!bp::util::starts_with(*matrix_header, "centroids")) {
    return error_at(LoadErrorCode::kBadSection, reader.line(), "centroids");
  }
  const auto centroids =
      parse_matrix(reader, *matrix_header, "centroids", matrix_error);
  if (!centroids) return matrix_error;
  // Centroids live in PCA space, one per cluster.
  if (centroids->rows() != config.k ||
      centroids->cols() != pca_matrix->cols()) {
    return error_at(LoadErrorCode::kBadSection, reader.line(), "centroids");
  }

  const auto table_count = read_int("table");
  if (!table_count) return int_error;
  if (*table_count < 0) {
    return error_at(LoadErrorCode::kBadSection, reader.line(), "table");
  }
  ClusterTable table;
  for (std::int64_t i = 0; i < *table_count; ++i) {
    const auto l = reader.next();
    if (!l) {
      return error_at(LoadErrorCode::kTruncated, reader.line(), "table");
    }
    const auto parts = bp::util::split(*l, ' ');
    if (parts.size() != 3) {
      return error_at(LoadErrorCode::kBadSection, reader.line(), "table");
    }
    const auto vendor = bp::util::parse_int(parts[0]);
    const auto version = bp::util::parse_int(parts[1]);
    const auto cluster = bp::util::parse_int(parts[2]);
    // A cluster id with no centroid would make every lookup of this UA
    // silently miss — reject rather than load a wrong model.
    if (!vendor || !version || !cluster ||
        static_cast<std::size_t>(*cluster) >= centroids->rows()) {
      return error_at(LoadErrorCode::kBadSection, reader.line(), "table");
    }
    table.assign(ua::UserAgent{static_cast<ua::Vendor>(*vendor),
                               static_cast<int>(*version)},
                 static_cast<std::size_t>(*cluster));
  }

  ml::KMeansConfig kconfig;
  kconfig.k = config.k;
  return Polygraph::from_parts(
      std::move(config), ml::StandardScaler::from_params(*means, *stddevs),
      ml::Pca::from_params(*pca_mean, *eigenvalues, *pca_matrix),
      ml::KMeans::from_centroids(*centroids, kconfig), std::move(table));
}

namespace {

// Crash-consistent write: tmp file + fsync + atomic rename.  A reader
// concurrently loading `path` sees either the previous complete file or
// the new complete file, never a partial one.
bool atomic_write_file(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = contents.empty() ||
            std::fwrite(contents.data(), 1, contents.size(), f) ==
                contents.size();
  ok = ok && std::fflush(f) == 0;
  ok = ok && ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

}  // namespace

bool save_model(const Polygraph& model, const std::string& path) {
  const std::string text = serialize_model(model);
  if (FAULT_POINT("model_io.write")) return false;
  if (FAULT_POINT("model_io.torn_write")) {
    // Simulate a crash after the caller was told the write succeeded
    // (e.g. an acked write the kernel never finished): a truncated file
    // lands at `path` directly, bypassing the tmp+rename protocol.  The
    // checksum footer is what catches this at load time.
    (void)bp::util::write_file(path, std::string_view(text).substr(
                                         0, text.size() / 2));
    return true;
  }
  return atomic_write_file(path, text);
}

LoadResult load_model(const std::string& path) {
  if (FAULT_POINT("model_io.read")) {
    return LoadError{LoadErrorCode::kInjectedFault, 0, "model_io.read"};
  }
  std::string text;
  if (!bp::util::read_file(path, text)) {
    return LoadError{LoadErrorCode::kFileMissing, 0, path};
  }
  return deserialize_model(text);
}

}  // namespace bp::core
