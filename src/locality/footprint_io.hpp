// ASCII footprint files.
//
// The paper's optimizer "reads 4 footprints from 4 files. There are 16
// footprint files for the 16 programs" (§VII-A), stored in ASCII. We mirror
// that: one file per program holding the program's name, access rate,
// trace length n, distinct-block count m, the (window, footprint) knots —
// downsampled, which is why the paper's files are a few hundred KB rather
// than the full trace length — and the HOTL miss-ratio curve mr(c) for
// c = 0..m, computed once from the dense footprint. Past m every cache
// size misses only cold (mr = m/n), so the curve covers every capacity.
//
// Format `ocps-footprint 2`: key lines `name`, `access_rate`,
// `trace_length`, `distinct`, then `knots <k>` and k "x y" lines, then
// `mrc <m+1>` and one ratio per line. Doubles are written at 17
// significant digits, so every value round-trips exactly.
#pragma once

#include <string>
#include <vector>

#include "locality/footprint.hpp"
#include "util/curve.hpp"

namespace ocps {

/// Everything the composition/optimization pipeline needs about a program.
struct FootprintFile {
  std::string name;
  double access_rate = 1.0;        ///< accesses per unit time (§IV)
  std::uint64_t trace_length = 0;  ///< n
  std::uint64_t distinct = 0;      ///< m
  PiecewiseLinear footprint;       ///< fp(w) knots
  std::vector<double> mrc;         ///< HOTL mr(c) for c = 0..m (Eq. 10)
};

/// Writes the footprint file. `max_knots` downsamples the curve (0 keeps
/// every knot). Throws CheckError when `mrc` does not hold m+1 ratios, or
/// on IO failure.
void save_footprint_file(const FootprintFile& data, const std::string& path,
                         std::size_t max_knots = kFootprintKnots);

/// Reads a version-2 file written by save_footprint_file. Throws
/// CheckError on any malformed or out-of-range content, and on a
/// version-1 file (it carries no miss-ratio curve; re-profile it).
FootprintFile load_footprint_file(const std::string& path);

/// Builds the in-memory record from a profiled curve, including the HOTL
/// miss-ratio curve derived from the dense footprint.
FootprintFile make_footprint_file(const std::string& name, double access_rate,
                                  const FootprintCurve& fp,
                                  std::size_t max_knots = kFootprintKnots);

}  // namespace ocps
