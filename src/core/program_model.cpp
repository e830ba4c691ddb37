#include "core/program_model.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ocps {

ProgramModel model_from_footprint_file(const FootprintFile& file,
                                       std::size_t capacity) {
  OCPS_CHECK(file.access_rate > 0.0, "access rate must be positive");
  OCPS_CHECK(file.mrc.size() == file.distinct + 1,
             "footprint file '" << file.name << "' carries "
                                << file.mrc.size()
                                << " miss ratios; distinct = "
                                << file.distinct << " needs distinct + 1");
  ProgramModel model;
  model.name = file.name;
  model.access_rate = file.access_rate;
  model.trace_length = file.trace_length;
  model.distinct = file.distinct;
  model.footprint = file.footprint;
  // mr(c) = m/n for every c >= m, which is the file curve's last entry.
  std::vector<double> ratios(capacity + 1);
  for (std::size_t c = 0; c <= capacity; ++c)
    ratios[c] = file.mrc[std::min<std::uint64_t>(c, file.distinct)];
  model.mrc = MissRatioCurve(std::move(ratios), file.trace_length);
  return model;
}

ProgramModel make_program_model(const std::string& name, double access_rate,
                                const FootprintCurve& fp,
                                std::size_t capacity) {
  return model_from_footprint_file(make_footprint_file(name, access_rate, fp),
                                   capacity);
}

}  // namespace ocps
