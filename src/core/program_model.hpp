// The per-program model consumed by the composition theory and the
// optimizers: a name, an access rate, the average footprint fp(w), and the
// solo miss-ratio curve mr(c).
//
// This mirrors exactly what the paper's pipeline profiles per program
// (§VII-A): the footprint file, which carries the derived MRC. Everything
// downstream — natural partitions, DP, STTW, baselines, the group sweep —
// consumes ProgramModel and never the raw trace, which is what makes the
// 1820-group evaluation cheap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "locality/footprint.hpp"
#include "locality/footprint_io.hpp"
#include "locality/mrc.hpp"
#include "util/curve.hpp"

namespace ocps {

/// Profiled model of a single program.
struct ProgramModel {
  std::string name;
  double access_rate = 1.0;        ///< accesses per unit time (§IV)
  std::uint64_t trace_length = 0;  ///< n
  std::uint64_t distinct = 0;      ///< m
  PiecewiseLinear footprint;       ///< fp(w), w in accesses
  MissRatioCurve mrc;              ///< solo miss ratio over cache sizes

  /// fp evaluated at (possibly fractional) window length w.
  double fp(double w) const { return footprint(w); }
};

/// Builds a model from a footprint file (the paper's on-disk form) for
/// cache sizes 0..capacity: the MRC is the file's HOTL curve, extended
/// with the cold-miss ratio past m.
ProgramModel model_from_footprint_file(const FootprintFile& file,
                                       std::size_t capacity);

/// Builds a model from a profiled footprint curve; the same as
/// model_from_footprint_file(make_footprint_file(name, access_rate, fp),
/// capacity), so a model never depends on whether its file was saved and
/// loaded in between.
ProgramModel make_program_model(const std::string& name, double access_rate,
                                const FootprintCurve& fp,
                                std::size_t capacity);

}  // namespace ocps
