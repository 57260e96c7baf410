#include "nexus/common/flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace nexus {
namespace {

[[noreturn]] void usage_and_exit(const std::map<std::string, std::string>& spec,
                                 const std::string& bad) {
  std::fprintf(stderr, "unknown or malformed flag: %s\nsupported flags:\n", bad.c_str());
  for (const auto& [k, help] : spec)
    std::fprintf(stderr, "  --%s  %s\n", k.c_str(), help.c_str());
  std::exit(2);
}

/// Whole-string numeric parse: false on no digits or trailing characters.
bool parse_int(const std::string& text, std::int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return end != text.c_str() && *end == '\0';
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             const std::map<std::string, std::string>& spec)
    : spec_(spec) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_and_exit(spec, arg);
    arg = arg.substr(2);
    std::string key;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      key = arg;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    if (spec.find(key) == spec.end()) usage_and_exit(spec, "--" + key);
    values_[key] = value;
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get(const std::string& key, const std::string& dflt) const {
  const auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  std::int64_t v = 0;
  if (!parse_int(it->second, &v))
    usage_and_exit(spec_, "--" + key + "=" + it->second);
  return v;
}

double Flags::get_double(const std::string& key, double dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  double v = 0.0;
  if (!parse_double(it->second, &v))
    usage_and_exit(spec_, "--" + key + "=" + it->second);
  return v;
}

bool Flags::get_bool(const std::string& key, bool dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::int64_t> Flags::get_int_list(
    const std::string& key, const std::vector<std::int64_t>& dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    std::int64_t v = 0;
    if (!parse_int(item, &v))
      usage_and_exit(spec_, "--" + key + "=" + it->second);
    out.push_back(v);
  }
  return out;
}

}  // namespace nexus
