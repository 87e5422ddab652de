#include "primitives/color_reduction.hpp"

// The KW reduction is fully generic over GraphView and lives in the header;
// this translation unit pins an instantiation for the host graph so the
// common path is compiled once into the library.

namespace deltacolor {

template LinialResult kw_reduce<Graph>(const Graph&, std::vector<Color>, int,
                                       int, LocalContext&, const ActiveNodes*);
template LinialResult schedule_coloring<Graph>(const Graph&, LocalContext&,
                                               const ActiveNodes*);

}  // namespace deltacolor
