#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.hh"

namespace adapt
{

void
Distribution::addSample(uint64_t outcome)
{
    addSamples(outcome, 1);
}

void
Distribution::addSamples(uint64_t outcome, uint64_t count)
{
    weights_[outcome] += static_cast<double>(count);
    totalWeight_ += static_cast<double>(count);
    totalSamples_ += count;
}

void
Distribution::setProbability(uint64_t outcome, double prob)
{
    require(prob >= 0.0, "Distribution probabilities must be >= 0");
    auto it = weights_.find(outcome);
    if (it == weights_.end()) {
        if (prob > 0.0) {
            weights_[outcome] = prob;
            totalWeight_ += prob;
        }
        return;
    }
    totalWeight_ += prob - it->second;
    if (prob > 0.0)
        it->second = prob;
    else
        weights_.erase(it);
}

double
Distribution::probability(uint64_t outcome) const
{
    if (totalWeight_ <= 0.0)
        return 0.0;
    auto it = weights_.find(outcome);
    return it == weights_.end() ? 0.0 : it->second / totalWeight_;
}

std::map<uint64_t, double>
Distribution::probabilities() const
{
    std::map<uint64_t, double> out;
    if (totalWeight_ <= 0.0)
        return out;
    for (const auto &[outcome, weight] : weights_)
        out[outcome] = weight / totalWeight_;
    return out;
}

double
Distribution::entropy() const
{
    double h = 0.0;
    for (const auto &[outcome, p] : probabilities()) {
        if (p > 0.0)
            h -= p * std::log2(p);
    }
    return h;
}

uint64_t
Distribution::mode() const
{
    require(!weights_.empty(), "Distribution::mode on empty distribution");
    uint64_t best = 0;
    double best_weight = -1.0;
    for (const auto &[outcome, weight] : weights_) {
        if (weight > best_weight) {
            best_weight = weight;
            best = outcome;
        }
    }
    return best;
}

OutcomePacker::OutcomePacker(int num_clbits)
    : numClbits_(num_clbits)
{
    require(num_clbits > 0,
            "OutcomePacker requires at least one classical bit");
    if (num_clbits > 64)
        words_.assign(static_cast<size_t>((num_clbits + 63) / 64), 0);
}

void
OutcomePacker::set(int clbit, bool value)
{
    if (clbit < 0 || clbit >= numClbits_)
        fatal("clbit " + std::to_string(clbit) + " out of range");
    if (words_.empty()) {
        const uint64_t mask = uint64_t{1} << clbit;
        direct_ = value ? (direct_ | mask) : (direct_ & ~mask);
        return;
    }
    uint64_t &word = words_[static_cast<size_t>(clbit) / 64];
    const uint64_t mask = uint64_t{1} << (clbit % 64);
    word = value ? (word | mask) : (word & ~mask);
}

bool
OutcomePacker::get(int clbit) const
{
    if (clbit < 0 || clbit >= numClbits_)
        fatal("clbit " + std::to_string(clbit) + " out of range");
    if (words_.empty())
        return (direct_ >> clbit) & 1;
    return (words_[static_cast<size_t>(clbit) / 64] >>
            (clbit % 64)) & 1;
}

namespace
{

/** splitmix64 finalizer: the mixing step of the fingerprint fold. */
uint64_t
mix64(uint64_t v)
{
    v ^= v >> 30;
    v *= 0xbf58476d1ce4e5b9ULL;
    v ^= v >> 27;
    v *= 0x94d049bb133111ebULL;
    v ^= v >> 31;
    return v;
}

} // namespace

uint64_t
OutcomePacker::key() const
{
    if (words_.empty())
        return direct_;
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t w = 0; w < words_.size(); w++)
        h = mix64(h ^ mix64(words_[w] + w * 0x9e3779b97f4a7c15ULL));
    return h;
}

void
OutcomePacker::clear()
{
    direct_ = 0;
    std::fill(words_.begin(), words_.end(), 0);
}

double
totalVariationDistance(const Distribution &p, const Distribution &q)
{
    const auto pp = p.probabilities();
    const auto qq = q.probabilities();
    double sum = 0.0;
    for (const auto &[outcome, prob] : pp) {
        auto it = qq.find(outcome);
        const double other = it == qq.end() ? 0.0 : it->second;
        sum += std::abs(prob - other);
    }
    for (const auto &[outcome, prob] : qq) {
        if (pp.find(outcome) == pp.end())
            sum += prob;
    }
    return sum / 2.0;
}

double
fidelity(const Distribution &ideal, const Distribution &measured)
{
    return 1.0 - totalVariationDistance(ideal, measured);
}

double
pearsonCorrelation(const std::vector<double> &x, const std::vector<double> &y)
{
    require(x.size() == y.size() && x.size() >= 2,
            "pearsonCorrelation requires two equal-length series, n >= 2");
    const double mx = mean(x);
    const double my = mean(y);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (size_t i = 0; i < x.size(); i++) {
        const double dx = x[i] - mx;
        const double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

namespace
{

/** Fractional ranks with ties averaged. */
std::vector<double>
fractionalRanks(const std::vector<double> &values)
{
    const size_t n = values.size();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return values[a] < values[b]; });

    std::vector<double> ranks(n, 0.0);
    size_t i = 0;
    while (i < n) {
        size_t j = i;
        while (j + 1 < n && values[order[j + 1]] == values[order[i]])
            j++;
        // Average rank for the tied group [i, j] (1-based ranks).
        const double avg = (static_cast<double>(i) +
                            static_cast<double>(j)) / 2.0 + 1.0;
        for (size_t k = i; k <= j; k++)
            ranks[order[k]] = avg;
        i = j + 1;
    }
    return ranks;
}

} // namespace

double
spearmanCorrelation(const std::vector<double> &x, const std::vector<double> &y)
{
    require(x.size() == y.size() && x.size() >= 2,
            "spearmanCorrelation requires two equal-length series, n >= 2");
    return pearsonCorrelation(fractionalRanks(x), fractionalRanks(y));
}

double
geometricMean(const std::vector<double> &values)
{
    require(!values.empty(), "geometricMean on empty vector");
    double log_sum = 0.0;
    for (double v : values) {
        require(v > 0.0, "geometricMean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    require(!values.empty(), "mean on empty vector");
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
stddev(const std::vector<double> &values)
{
    require(values.size() >= 2, "stddev requires n >= 2");
    const double m = mean(values);
    double ss = 0.0;
    for (double v : values)
        ss += (v - m) * (v - m);
    return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

double
minOf(const std::vector<double> &values)
{
    require(!values.empty(), "minOf on empty vector");
    return *std::min_element(values.begin(), values.end());
}

double
maxOf(const std::vector<double> &values)
{
    require(!values.empty(), "maxOf on empty vector");
    return *std::max_element(values.begin(), values.end());
}

double
percentile(std::vector<double> values, double pct)
{
    require(!values.empty(), "percentile on empty vector");
    require(pct >= 0.0 && pct <= 100.0, "percentile must be in [0, 100]");
    std::sort(values.begin(), values.end());
    const double pos = pct / 100.0 * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Histogram::Histogram(double lo, double hi, int num_bins) : lo_(lo), hi_(hi)
{
    require(hi > lo, "Histogram requires hi > lo");
    require(num_bins > 0, "Histogram requires at least one bin");
    counts_.assign(static_cast<size_t>(num_bins), 0);
}

void
Histogram::add(double value)
{
    const int n = numBins();
    int bin = static_cast<int>((value - lo_) / (hi_ - lo_) *
                               static_cast<double>(n));
    bin = std::clamp(bin, 0, n - 1);
    counts_[static_cast<size_t>(bin)]++;
    total_++;
}

double
Histogram::binCenter(int bin) const
{
    const double width = (hi_ - lo_) / static_cast<double>(numBins());
    return lo_ + (static_cast<double>(bin) + 0.5) * width;
}

std::string
Histogram::toString() const
{
    std::ostringstream oss;
    for (int b = 0; b < numBins(); b++)
        oss << binCenter(b) << " " << counts_[static_cast<size_t>(b)] << "\n";
    return oss.str();
}

} // namespace adapt
