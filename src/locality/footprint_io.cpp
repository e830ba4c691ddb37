#include "locality/footprint_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "locality/hotl.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

namespace {

constexpr int kFormatVersion = 2;

// Whitespace-delimited tokens of a whole file held in memory. Numbers
// parse with std::from_chars: exact, locale-independent, and the whole
// token must be consumed.
struct Tokens {
  const char* p;
  const char* end;

  static bool space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  std::string_view next() {  // empty at end of input
    while (p != end && space(*p)) ++p;
    const char* start = p;
    while (p != end && !space(*p)) ++p;
    return {start, static_cast<std::size_t>(p - start)};
  }

  template <typename T>
  bool number(T& out) {
    const std::string_view tok = next();
    const char* last = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), last, out);
    return !tok.empty() && ec == std::errc() && ptr == last;
  }
};

}  // namespace

void save_footprint_file(const FootprintFile& data, const std::string& path,
                         std::size_t max_knots) {
  OCPS_CHECK(data.mrc.size() == data.distinct + 1,
             "footprint file '" << data.name << "' carries "
                                << data.mrc.size()
                                << " miss ratios; distinct = "
                                << data.distinct << " needs distinct + 1");
  std::ofstream os(path, std::ios::trunc);
  OCPS_CHECK(os.good(), "cannot open " << path << " for writing");
  PiecewiseLinear curve = data.footprint;
  if (max_knots > 0 && curve.size() > max_knots)
    curve = curve.simplify_to(kFootprintTolerance, max_knots);
  os << "ocps-footprint " << kFormatVersion << '\n';
  os << "name " << data.name << '\n';
  os << "access_rate " << std::setprecision(17) << data.access_rate << '\n';
  os << "trace_length " << data.trace_length << '\n';
  os << "distinct " << data.distinct << '\n';
  os << "knots " << curve.size() << '\n';
  for (std::size_t i = 0; i < curve.size(); ++i)
    os << curve.xs()[i] << ' ' << curve.ys()[i] << '\n';
  os << "mrc " << data.mrc.size() << '\n';
  for (double r : data.mrc) os << r << '\n';
  OCPS_CHECK(os.good(), "write failed for " << path);
}

FootprintFile load_footprint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  OCPS_CHECK(is.good(), "cannot open " << path << " for reading");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = std::move(buffer).str();
  const std::uint64_t file_size = text.size();
  Tokens in{text.data(), text.data() + text.size()};

  int version = 0;
  OCPS_CHECK(in.next() == "ocps-footprint" && in.number(version),
             "bad footprint file header in " << path);
  OCPS_CHECK(version == kFormatVersion,
             "footprint file " << path << " is format version " << version
                               << "; only version " << kFormatVersion
                               << " carries the miss-ratio curve, so "
                                  "re-profile the trace to write it");
  FootprintFile out;
  for (std::string_view key = in.next(); key != "knots"; key = in.next()) {
    bool ok = true;
    if (key == "name")
      out.name = in.next();
    else if (key == "access_rate")
      ok = in.number(out.access_rate);
    else if (key == "trace_length")
      ok = in.number(out.trace_length);
    else if (key == "distinct")
      ok = in.number(out.distinct);
    else
      OCPS_CHECK(false, "unexpected '" << key << "' before the knots in "
                                       << path);
    OCPS_CHECK(ok, "unparsable value for '" << key << "' in " << path);
  }
  OCPS_CHECK(std::isfinite(out.access_rate) && out.access_rate > 0.0,
             "access rate must be positive and finite in " << path);
  OCPS_CHECK(out.trace_length > 0 && out.distinct <= out.trace_length,
             "footprint file " << path << " needs 0 < trace_length and "
                                          "distinct <= trace_length");

  // Each knot occupies at least 4 bytes on disk ("x y\n") and each ratio
  // at least 2 ("r\n"); a count implying more data than the file holds is
  // a corrupt header, and resizing to it could allocate gigabytes.
  std::size_t knots = 0;
  OCPS_CHECK(in.number(knots) && knots >= 1,
             "footprint file has no knots: " << path);
  OCPS_CHECK(knots <= file_size / 4,
             "footprint header in " << path << " claims " << knots
                                    << " knots but the file is only "
                                    << file_size << " bytes");
  std::vector<double> xs(knots), ys(knots);
  for (std::size_t i = 0; i < knots; ++i) {
    OCPS_CHECK(in.number(xs[i]) && in.number(ys[i]),
               "truncated or unparsable knot " << i << " in " << path);
    OCPS_CHECK(std::isfinite(xs[i]) && std::isfinite(ys[i]),
               "non-finite coordinate at knot " << i << " in " << path);
    OCPS_CHECK(xs[i] >= 0.0 && ys[i] >= 0.0,
               "negative coordinate at knot " << i << " in " << path);
    OCPS_CHECK(i == 0 || (xs[i] > xs[i - 1] && ys[i] >= ys[i - 1]),
               "window not increasing or footprint decreasing at knot "
                   << i << " in " << path);
  }
  out.footprint = PiecewiseLinear(std::move(xs), std::move(ys));

  std::uint64_t ratios = 0;
  OCPS_CHECK(in.next() == "mrc" && in.number(ratios),
             "footprint file " << path << " has no mrc section");
  OCPS_CHECK(ratios >= 1 && ratios - 1 == out.distinct,
             "mrc section in " << path << " holds " << ratios
                               << " ratios; distinct = " << out.distinct
                               << " needs distinct + 1");
  OCPS_CHECK(ratios <= file_size / 2,
             "mrc section in " << path << " claims " << ratios
                               << " ratios but the file is only "
                               << file_size << " bytes");
  out.mrc.resize(ratios);
  for (std::size_t c = 0; c < ratios; ++c) {
    double& r = out.mrc[c];
    OCPS_CHECK(in.number(r) && std::isfinite(r) && r >= 0.0 && r <= 1.0,
               "unparsable miss ratio or one out of [0,1] at c="
                   << c << " in " << path);
    OCPS_CHECK(c == 0 || r <= out.mrc[c - 1],
               "miss ratio increases at c=" << c << " in " << path);
  }
  OCPS_CHECK(in.next().empty(),
             "trailing data after the mrc section in " << path);

  OCPS_OBS_COUNT("io.footprint.bytes_read", file_size);
  OCPS_OBS_COUNT("io.footprint.knots_parsed", knots);
  OCPS_OBS_COUNT("io.footprint.files_loaded", 1);
  return out;
}

FootprintFile make_footprint_file(const std::string& name, double access_rate,
                                  const FootprintCurve& fp,
                                  std::size_t max_knots) {
  FootprintFile out;
  out.name = name;
  out.access_rate = access_rate;
  out.trace_length = fp.trace_length;
  out.distinct = fp.distinct;
  out.footprint = fp.to_curve(max_knots);
  // Past m every size misses only cold, so sizes 0..m are the whole curve.
  out.mrc = hotl_mrc(fp, fp.distinct).ratios();
  return out;
}

}  // namespace ocps
