// Small statistics helpers used by tests and the benchmark harness:
// summaries and least-squares fits against log n, used to
// report complexity "shape" in EXPERIMENTS.md.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace deltacolor {

struct Summary {
  std::size_t count = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double stddev = 0;
  double median = 0;
};

/// Summary statistics of a sample (empty input yields a zeroed Summary).
Summary summarize(std::vector<double> values);

/// Result of fitting y = a + b * x by ordinary least squares.
struct LinearFit {
  double intercept = 0;
  double slope = 0;
  double r2 = 0;  ///< coefficient of determination
};

LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y);

/// Fits rounds(n) = a + b * log2(n). A good fit (high r2, positive slope)
/// is the empirical signature of an O(log n)-round algorithm.
LinearFit fit_log(const std::vector<double>& n,
                  const std::vector<double>& rounds);

/// iterated-log of n (number of times log2 must be applied to reach <= 1).
int log_star(double n);

std::string format_summary(const Summary& s);

}  // namespace deltacolor
