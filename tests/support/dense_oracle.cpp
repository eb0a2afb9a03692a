#include "dense_oracle.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/encoder.hpp"

namespace hdtest::oracle {

namespace {

void check_same_dim(std::size_t a, std::size_t b, const char* who) {
  if (a != b) {
    throw std::invalid_argument(std::string(who) + ": dimension mismatch");
  }
}

void check_non_empty(std::size_t dim, const char* who) {
  if (dim == 0) {
    throw std::invalid_argument(std::string(who) +
                                ": zero-dimensional operands");
  }
}

}  // namespace

Hypervector::Hypervector(std::size_t dim) : elems_(dim, 1) {
  check_non_empty(dim, "Hypervector");
}

Hypervector Hypervector::random(std::size_t dim, util::Rng& rng) {
  Hypervector v;
  v.elems_.resize(dim);
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    if (i % 64 == 0) bits = rng.next_u64();
    v.elems_[i] = ((bits >> (i % 64)) & 1u) != 0 ? 1 : -1;
  }
  return v;
}

Hypervector Hypervector::from_raw(std::vector<std::int8_t> raw) {
  for (const auto value : raw) {
    if (value != 1 && value != -1) {
      throw std::invalid_argument(
          "Hypervector::from_raw: value not in {-1, +1}");
    }
  }
  Hypervector v;
  v.elems_ = std::move(raw);
  return v;
}

void Hypervector::set(std::size_t i, std::int8_t value) {
  if (i >= elems_.size()) {
    throw std::out_of_range("Hypervector::set: index out of range");
  }
  if (value != 1 && value != -1) {
    throw std::invalid_argument("Hypervector::set: value must be -1 or +1");
  }
  elems_[i] = value;
}

void Hypervector::flip(std::size_t i) {
  if (i >= elems_.size()) {
    throw std::out_of_range("Hypervector::flip: index out of range");
  }
  elems_[i] = static_cast<std::int8_t>(-elems_[i]);
}

Hypervector bind(const Hypervector& a, const Hypervector& b) {
  check_same_dim(a.dim(), b.dim(), "bind");
  std::vector<std::int8_t> raw(a.dim());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::int8_t>(a[i] * b[i]);
  }
  return Hypervector::from_raw(std::move(raw));
}

std::int64_t dot(const Hypervector& a, const Hypervector& b) {
  check_same_dim(a.dim(), b.dim(), "dot");
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < a.dim(); ++i) sum += a[i] * b[i];
  return sum;
}

double cosine(const Hypervector& a, const Hypervector& b) {
  check_same_dim(a.dim(), b.dim(), "cosine");
  check_non_empty(a.dim(), "cosine");
  // Bipolar vectors have Euclidean norm sqrt(D), so cosine = dot / D.
  return static_cast<double>(dot(a, b)) / static_cast<double>(a.dim());
}

std::size_t hamming(const Hypervector& a, const Hypervector& b) {
  check_same_dim(a.dim(), b.dim(), "hamming");
  std::size_t count = 0;
  for (std::size_t i = 0; i < a.dim(); ++i) count += a[i] != b[i];
  return count;
}

double hamming_similarity(const Hypervector& a, const Hypervector& b) {
  check_non_empty(a.dim(), "hamming_similarity");
  return 1.0 -
         static_cast<double>(hamming(a, b)) / static_cast<double>(a.dim());
}

hdc::PackedHv pack(const Hypervector& v) {
  hdc::PackedHv packed(v.dim());
  for (std::size_t i = 0; i < v.dim(); ++i) packed.set(i, v[i]);
  return packed;
}

Hypervector unpack(std::size_t dim, std::span<const std::uint64_t> words) {
  std::vector<std::int8_t> raw(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    raw[i] = ((words[i / 64] >> (i % 64)) & 1u) != 0 ? -1 : 1;
  }
  return Hypervector::from_raw(std::move(raw));
}

Hypervector unpack(const hdc::PackedHv& v) {
  return unpack(v.dim(), v.words());
}

void add(Lanes& lanes, const Hypervector& v, int weight) {
  check_same_dim(lanes.size(), v.dim(), "add");
  for (std::size_t i = 0; i < lanes.size(); ++i) lanes[i] += weight * v[i];
}

Hypervector bipolarize(std::span<const std::int32_t> lanes,
                       const Hypervector& tie_break) {
  check_same_dim(lanes.size(), tie_break.dim(), "bipolarize");
  std::vector<std::int8_t> raw(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    raw[i] = lanes[i] < 0 ? -1 : lanes[i] > 0 ? 1 : tie_break[i];
  }
  return Hypervector::from_raw(std::move(raw));
}

ItemMemory::ItemMemory(std::size_t count, std::size_t dim, std::uint64_t seed,
                       hdc::ValueStrategy strategy) {
  if (count == 0 || dim == 0) {
    throw std::invalid_argument("ItemMemory: count and dim must be non-zero");
  }
  if (strategy == hdc::ValueStrategy::kRandom) {
    for (std::size_t i = 0; i < count; ++i) {
      util::Rng rng(util::derive_seed(seed, i));
      entries_.push_back(Hypervector::random(dim, rng));
    }
    return;
  }
  util::Rng rng(util::derive_seed(seed, 0));
  if (strategy == hdc::ValueStrategy::kLevel) {
    // Level 0 is random; each further level flips the next batch of a
    // random permutation, dim/2 flips in all.
    Hypervector current = Hypervector::random(dim, rng);
    entries_.push_back(current);
    if (count == 1) return;
    const auto order = rng.sample_indices(dim, dim);
    std::size_t flipped = 0;
    for (std::size_t level = 1; level < count; ++level) {
      for (; flipped < dim / 2 * level / (count - 1); ++flipped) {
        current.flip(order[flipped]);
      }
      entries_.push_back(current);
    }
    return;
  }
  // Thermometer: level i is +1 on the first dim*i/(count-1) positions of a
  // random permutation, -1 elsewhere.
  const auto order = rng.sample_indices(dim, dim);
  for (std::size_t level = 0; level < count; ++level) {
    std::vector<std::int8_t> raw(dim, -1);
    const std::size_t ones = count > 1 ? dim * level / (count - 1) : dim;
    for (std::size_t i = 0; i < ones; ++i) raw[order[i]] = 1;
    entries_.push_back(Hypervector::from_raw(std::move(raw)));
  }
}

const Hypervector& ItemMemory::at(std::size_t index) const {
  if (index >= entries_.size()) {
    throw std::out_of_range("ItemMemory::at: index out of range");
  }
  return entries_[index];
}

Encoder::Encoder(const hdc::ModelConfig& config, std::size_t width,
                 std::size_t height)
    : value_levels_(config.value_levels),
      positions_(width * height, config.dim,
                 hdc::position_codebook_seed(config)),
      values_(config.value_levels, config.dim,
              hdc::value_codebook_seed(config), config.value_strategy),
      tie_break_([&] {
        util::Rng rng(hdc::tie_break_seed(config));
        return Hypervector::random(config.dim, rng);
      }()) {}

Hypervector Encoder::pixel_hv(std::size_t position, std::uint8_t value) const {
  return bind(positions_.at(position),
              values_.at(hdc::value_level_index(value_levels_, value)));
}

Lanes Encoder::lanes(const data::Image& image) const {
  Lanes sums(tie_break_.dim(), 0);
  const auto pixels = image.pixels();
  for (std::size_t p = 0; p < pixels.size(); ++p) {
    add(sums, pixel_hv(p, pixels[p]));
  }
  return sums;
}

Hypervector Encoder::encode(const data::Image& image) const {
  return bipolarize(lanes(image), tie_break_);
}

std::vector<Hypervector> class_hvs(const hdc::AssociativeMemory& am,
                                   std::uint64_t seed) {
  // The associative memory's tie-break stream (assoc_memory.cpp).
  util::Rng rng(util::derive_seed(seed, 0x7ab5ULL));
  const auto tie_break = Hypervector::random(am.dim(), rng);
  std::vector<Hypervector> classes;
  for (std::size_t c = 0; c < am.num_classes(); ++c) {
    classes.push_back(bipolarize(am.accumulator(c).lanes(), tie_break));
  }
  return classes;
}

std::vector<double> similarities(std::span<const Hypervector> classes,
                                 const Hypervector& query,
                                 hdc::Similarity metric) {
  std::vector<double> sims;
  for (const auto& cls : classes) {
    sims.push_back(metric == hdc::Similarity::kCosine
                       ? cosine(query, cls)
                       : hamming_similarity(query, cls));
  }
  return sims;
}

std::size_t predict(std::span<const Hypervector> classes,
                    const Hypervector& query, hdc::Similarity metric) {
  const auto sims = similarities(classes, query, metric);
  std::size_t best = 0;
  for (std::size_t c = 1; c < sims.size(); ++c) {
    if (sims[c] > sims[best]) best = c;
  }
  return best;
}

Classifier::Classifier(const hdc::HdcClassifier& model)
    : metric_(model.config().similarity),
      encoder_(model.config(), model.encoder().width(),
               model.encoder().height()),
      // The classifier's associative-memory seed (classifier.cpp).
      classes_(oracle::class_hvs(
          model.am(), util::derive_seed(model.config().seed, 0xa11ULL))) {}

std::vector<double> Classifier::similarities(const data::Image& image) const {
  return oracle::similarities(classes_, encoder_.encode(image), metric_);
}

std::size_t Classifier::predict(const data::Image& image) const {
  return oracle::predict(classes_, encoder_.encode(image), metric_);
}

}  // namespace hdtest::oracle
