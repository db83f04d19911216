#include "obs/exposition.hpp"

#include <cctype>
#include <string>

namespace ibgp::obs {

std::string exposition_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    const bool valid = alpha || c == '_' || c == ':' || (digit && i > 0);
    out.push_back(valid ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string exposition_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

void append_line(std::string& out, const std::string& name,
                 const std::string& labels, const std::string& value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

}  // namespace

std::string render_exposition(const std::vector<MetricSample>& samples) {
  std::string out;
  for (const MetricSample& sample : samples) {
    const std::string base = exposition_name(sample.name);
    switch (sample.kind) {
      case MetricSample::Kind::kCounter: {
        const std::string name = base + "_total";
        out += "# TYPE " + name + " counter\n";
        append_line(out, name, "", std::to_string(sample.counter_value));
        break;
      }
      case MetricSample::Kind::kGauge: {
        out += "# TYPE " + base + " gauge\n";
        append_line(out, base, "", std::to_string(sample.gauge_value));
        break;
      }
      case MetricSample::Kind::kHistogram: {
        out += "# TYPE " + base + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < sample.bounds.size(); ++i) {
          if (i < sample.counts.size()) cumulative += sample.counts[i];
          const std::string le =
              exposition_escape_label(std::to_string(sample.bounds[i]));
          append_line(out, base + "_bucket", "le=\"" + le + "\"",
                      std::to_string(cumulative));
        }
        // +Inf bucket = everything, must equal _count.
        std::uint64_t all = 0;
        for (const std::uint64_t count : sample.counts) all += count;
        append_line(out, base + "_bucket", "le=\"+Inf\"", std::to_string(all));
        append_line(out, base + "_sum", "", std::to_string(sample.sum));
        append_line(out, base + "_count", "", std::to_string(all));
        break;
      }
    }
  }
  return out;
}

}  // namespace ibgp::obs
