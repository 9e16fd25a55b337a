#include "placement/svg.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace pts::placement {
namespace {

std::string color_for(double intensity) {
  // Light gray (0) -> red (1).
  const double t = std::clamp(intensity, 0.0, 1.0);
  const int r = static_cast<int>(220 + 35 * t);
  const int g = static_cast<int>(220 * (1.0 - t));
  const int b = static_cast<int>(220 * (1.0 - t));
  char buf[16];
  std::snprintf(buf, sizeof(buf), "#%02x%02x%02x", r, g, b);
  return buf;
}

}  // namespace

std::string render_svg(const Placement& placement, const HpwlState& hpwl,
                       const SvgOptions& options) {
  const auto& netlist = placement.netlist();
  const auto& layout = placement.layout();
  const double s = options.scale;
  PTS_CHECK(s > 0.0);

  const double margin = 4.0;  // layout units around the core (pads live here)
  const double width = (layout.nominal_width() + 2 * margin) * s;
  const double height = (layout.core_height() + 2 * margin) * s;
  auto px = [&](double x) { return (x + margin) * s; };
  auto py = [&](double y) { return height - (y + margin) * s; };  // y up

  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width
     << "\" height=\"" << height << "\" viewBox=\"0 0 " << width << ' ' << height
     << "\">\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  if (!options.title.empty()) {
    os << "<text x=\"6\" y=\"14\" font-family=\"monospace\" font-size=\"12\">"
       << options.title << "</text>\n";
  }

  // Row outlines.
  for (std::size_t row = 0; row < layout.num_rows(); ++row) {
    const double y = layout.row_y(row);
    os << "<rect x=\"" << px(0.0) << "\" y=\"" << py(y + 0.45) << "\" width=\""
       << layout.nominal_width() * s << "\" height=\"" << 0.9 * s
       << "\" fill=\"none\" stroke=\"#cccccc\" stroke-width=\"0.5\"/>\n";
  }

  // Flylines of the longest nets (under the cells).
  if (options.flylines > 0) {
    std::vector<netlist::NetId> nets(netlist.num_nets());
    for (netlist::NetId n = 0; n < nets.size(); ++n) nets[n] = n;
    std::sort(nets.begin(), nets.end(), [&](netlist::NetId a, netlist::NetId b) {
      return hpwl.net_hpwl(a) > hpwl.net_hpwl(b);
    });
    nets.resize(std::min<std::size_t>(options.flylines, nets.size()));
    for (netlist::NetId net : nets) {
      const Point d = placement.position(netlist.topology().driver(net));
      for (netlist::CellId sink : netlist.topology().sinks(net)) {
        const Point q = placement.position(sink);
        os << "<line x1=\"" << px(d.x) << "\" y1=\"" << py(d.y) << "\" x2=\""
           << px(q.x) << "\" y2=\"" << py(q.y)
           << "\" stroke=\"#88aaff\" stroke-width=\"0.6\" opacity=\"0.6\"/>\n";
      }
    }
  }

  // Movable cells.
  for (netlist::CellId cell : netlist.movable_cells()) {
    const Point p = placement.position(cell);
    const double w = static_cast<double>(netlist.cell(cell).width);
    const double intensity = cell < options.cell_intensity.size()
                                 ? options.cell_intensity[cell]
                                 : 0.0;
    os << "<rect x=\"" << px(p.x - w / 2) << "\" y=\"" << py(p.y + 0.4)
       << "\" width=\"" << w * s << "\" height=\"" << 0.8 * s << "\" fill=\""
       << color_for(intensity)
       << "\" stroke=\"#555555\" stroke-width=\"0.4\"/>\n";
  }

  // Pads as triangles (PI) and squares (PO).
  for (netlist::CellId pad : netlist.pad_cells()) {
    const Point p = placement.position(pad);
    if (netlist.cell(pad).kind == netlist::CellKind::PrimaryInput) {
      os << "<polygon points=\"" << px(p.x - 0.4) << ',' << py(p.y - 0.4) << ' '
         << px(p.x - 0.4) << ',' << py(p.y + 0.4) << ' ' << px(p.x + 0.4) << ','
         << py(p.y) << "\" fill=\"#44aa44\"/>\n";
    } else {
      os << "<rect x=\"" << px(p.x - 0.35) << "\" y=\"" << py(p.y + 0.35)
         << "\" width=\"" << 0.7 * s << "\" height=\"" << 0.7 * s
         << "\" fill=\"#aa8844\"/>\n";
    }
  }

  os << "</svg>\n";
  return os.str();
}

void save_svg(const Placement& placement, const HpwlState& hpwl,
              const std::string& path, const SvgOptions& options) {
  std::ofstream out(path);
  PTS_CHECK_MSG(out.good(), "cannot open SVG output file");
  out << render_svg(placement, hpwl, options);
}

}  // namespace pts::placement
