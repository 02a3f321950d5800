#include "analysis/zipf.h"

#include <cmath>
#include <vector>

namespace culevo {

ZipfFit FitZipf(const RankFrequency& curve) {
  std::vector<double> xs;  // log10(rank)
  std::vector<double> ys;  // log10(frequency)
  for (size_t rank = 1; rank <= curve.size(); ++rank) {
    const double f = curve.at_rank(rank);
    if (f <= 0.0) continue;
    xs.push_back(std::log10(static_cast<double>(rank)));
    ys.push_back(std::log10(f));
  }
  ZipfFit fit;
  const size_t n = xs.size();
  if (n < 2) return fit;

  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_x += xs[i];
    mean_y += ys[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);

  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mean_x;
    const double dy = ys[i] - mean_y;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;

  const double slope = sxy / sxx;
  fit.exponent = -slope;
  fit.intercept = mean_y - slope * mean_x;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

RankFrequency IngredientPopularityCurve(const RecipeCorpus& corpus,
                                        CuisineId cuisine) {
  const size_t recipes = corpus.num_recipes_in(cuisine);
  if (recipes == 0) return RankFrequency();
  std::vector<size_t> positive;
  for (uint32_t count : corpus.presence(cuisine)) {
    if (count > 0) positive.push_back(count);
  }
  return RankFrequency::FromCounts(positive, recipes);
}

}  // namespace culevo
