#include "src/tram/tram.hpp"

namespace acic::tram {

const char* aggregation_name(Aggregation mode) {
  switch (mode) {
    case Aggregation::kPP:
      return "PP";
    case Aggregation::kWP:
      return "WP";
    case Aggregation::kWW:
      return "WW";
    case Aggregation::kPW:
      return "PW";
  }
  return "??";
}

}  // namespace acic::tram
