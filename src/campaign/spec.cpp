#include "campaign/spec.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "util/parse.hpp"
#include "util/random.hpp"
#include "util/require.hpp"

namespace wmsn::campaign {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw PreconditionError("campaign spec line " + std::to_string(line) + ": " +
                          what);
}

}  // namespace

std::uint64_t CampaignSpec::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

const Settings* CampaignSpec::findVariant(const std::string& name) const {
  for (const auto& [variantName, settings] : variants)
    if (variantName == name) return &settings;
  return nullptr;
}

CampaignSpec parseSpec(const std::string& text) {
  CampaignSpec spec;
  spec.text = text;

  enum class Section { kBase, kVariant, kSweep };
  Section section = Section::kBase;
  Settings* variant = nullptr;

  std::istringstream in(text);
  std::string raw;
  std::size_t lineNo = 0;
  while (std::getline(in, raw)) {
    ++lineNo;
    const std::size_t hash = raw.find('#');
    const std::string line =
        trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(lineNo, "unterminated section header");
      const std::string header = trim(line.substr(1, line.size() - 2));
      if (header == "sweep") {
        section = Section::kSweep;
        variant = nullptr;
        continue;
      }
      if (header.rfind("variant", 0) == 0) {
        const std::string name = trim(header.substr(7));
        if (name.empty()) fail(lineNo, "variant section needs a name");
        if (spec.findVariant(name))
          fail(lineNo, "duplicate variant '" + name + "'");
        spec.variants.emplace_back(name, Settings{});
        variant = &spec.variants.back().second;
        section = Section::kVariant;
        continue;
      }
      fail(lineNo, "unknown section '[" + header + "]'");
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(lineNo, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(lineNo, "empty key");
    if (value.empty()) fail(lineNo, "empty value for key '" + key + "'");

    switch (section) {
      case Section::kBase:
        if (key == "name") {
          spec.name = value;
        } else if (key == "seed") {
          spec.seedBase =
              parseNumber<std::uint64_t>("campaign key 'seed'", value);
        } else if (key == "repeats") {
          spec.repeats =
              parseNumber<std::uint32_t>("campaign key 'repeats'", value);
          if (spec.repeats == 0) fail(lineNo, "repeats must be >= 1");
        } else if (key == "compare") {
          spec.compareKey = value;
        } else {
          spec.base.emplace_back(key, value);
        }
        break;
      case Section::kVariant:
        variant->emplace_back(key, value);
        break;
      case Section::kSweep: {
        for (const Axis& axis : spec.axes)
          if (axis.key == key) fail(lineNo, "duplicate axis '" + key + "'");
        Axis axis;
        axis.key = key;
        std::set<std::string> labels;
        for (const std::string& item : splitList(value, ',')) {
          if (item.empty()) fail(lineNo, "empty item in axis '" + key + "'");
          AxisValue av;
          const std::size_t itemEq = item.find('=');
          if (itemEq == std::string::npos) {
            av.label = av.value = item;
          } else {
            av.label = trim(item.substr(0, itemEq));
            av.value = trim(item.substr(itemEq + 1));
            if (av.label.empty() || av.value.empty())
              fail(lineNo, "bad 'label=value' item in axis '" + key + "'");
          }
          if (av.label.find('/') != std::string::npos)
            fail(lineNo, "axis label '" + av.label + "' may not contain '/'");
          if (!labels.insert(av.label).second)
            fail(lineNo, "duplicate label '" + av.label + "' in axis '" + key +
                             "'");
          axis.values.push_back(std::move(av));
        }
        spec.axes.push_back(std::move(axis));
        break;
      }
    }
  }

  WMSN_REQUIRE_MSG(!spec.axes.empty(),
                   "campaign spec declares no [sweep] axes");
  if (spec.compareKey.empty()) {
    for (const char* candidate : {"variant", "protocol"})
      for (const Axis& axis : spec.axes)
        if (spec.compareKey.empty() && axis.key == candidate)
          spec.compareKey = candidate;
  } else {
    const bool known = std::any_of(
        spec.axes.begin(), spec.axes.end(),
        [&](const Axis& a) { return a.key == spec.compareKey; });
    WMSN_REQUIRE_MSG(known, "campaign 'compare' names unswept axis '" +
                                spec.compareKey + "'");
  }
  return spec;
}

CampaignSpec loadSpec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw PreconditionError("cannot open campaign spec " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parseSpec(text.str());
}

std::vector<PlannedRun> expand(const CampaignSpec& spec) {
  const std::vector<std::uint64_t> seeds =
      seedSequence(spec.seedBase, spec.repeats);

  core::ScenarioConfig base;
  for (const auto& [key, value] : spec.base)
    core::applySetting(base, key, value);

  std::vector<PlannedRun> runs;
  std::set<std::string> seen;
  std::vector<std::size_t> odometer(spec.axes.size(), 0);
  while (true) {
    // Build this cell's config: base settings, then each axis value in
    // declaration order (a variant value expands to its settings bundle).
    core::ScenarioConfig cfg = base;
    std::vector<std::string> labels;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const Axis& axis = spec.axes[a];
      const AxisValue& av = axis.values[odometer[a]];
      labels.push_back(av.label);
      if (axis.key == "variant") {
        const Settings* settings = spec.findVariant(av.value);
        WMSN_REQUIRE_MSG(settings, "campaign sweep names unknown variant '" +
                                       av.value + "'");
        for (const auto& [key, value] : *settings)
          core::applySetting(cfg, key, value);
      } else {
        core::applySetting(cfg, axis.key, av.value);
      }
    }
    std::string cell;
    for (const std::string& label : labels) {
      if (!cell.empty()) cell += '/';
      cell += label;
    }
    for (std::uint32_t k = 0; k < spec.repeats; ++k) {
      PlannedRun run;
      run.cell = cell;
      run.axisLabels = labels;
      run.seedIndex = k;
      run.seed = seeds[k];
      run.id = cell + "/s" + std::to_string(run.seed);
      run.config = cfg;
      run.config.seed = run.seed;
      run.config.validate();
      WMSN_REQUIRE_MSG(seen.insert(run.id).second,
                       "campaign grid produced duplicate run id '" + run.id +
                           "'");
      runs.push_back(std::move(run));
    }

    // Advance the odometer, last axis fastest.
    std::size_t a = spec.axes.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < spec.axes[a].values.size()) break;
      odometer[a] = 0;
      if (a == 0) return runs;
    }
  }
}

}  // namespace wmsn::campaign
