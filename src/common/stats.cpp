#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace deltacolor {

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  double sq = 0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1
                 ? std::sqrt(sq / static_cast<double>(values.size() - 1))
                 : 0.0;
  const std::size_t mid = values.size() / 2;
  s.median = values.size() % 2 == 1
                 ? values[mid]
                 : 0.5 * (values[mid - 1] + values[mid]);
  return s;
}

LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y) {
  DC_CHECK(x.size() == y.size());
  LinearFit f;
  const std::size_t n = x.size();
  if (n < 2) return f;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double dn = static_cast<double>(n);
  const double den = dn * sxx - sx * sx;
  if (den == 0) return f;
  f.slope = (dn * sxy - sx * sy) / den;
  f.intercept = (sy - f.slope * sx) / dn;
  double ss_res = 0;
  const double ybar = sy / dn;
  double ss_tot = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = f.intercept + f.slope * x[i];
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - ybar) * (y[i] - ybar);
  }
  f.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return f;
}

LinearFit fit_log(const std::vector<double>& n,
                  const std::vector<double>& rounds) {
  std::vector<double> x(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) x[i] = std::log2(n[i]);
  return fit_linear(x, rounds);
}

int log_star(double n) {
  int k = 0;
  while (n > 1.0) {
    n = std::log2(n);
    ++k;
  }
  return k;
}

std::string format_summary(const Summary& s) {
  std::ostringstream os;
  os << "n=" << s.count << " min=" << s.min << " med=" << s.median
     << " mean=" << s.mean << " max=" << s.max << " sd=" << s.stddev;
  return os.str();
}

}  // namespace deltacolor
