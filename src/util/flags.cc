#include "util/flags.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "util/strings.h"

namespace culevo {
namespace {

[[noreturn]] void ExitInvalidValue(const std::string& name,
                                   const std::string& value) {
  std::cerr << Status::InvalidArgument("invalid value '" + value +
                                       "' for --" + name)
            << "\n";
  std::exit(2);
}

}  // namespace

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      name = body;
      value = argv[++i];
    } else {
      name = body;
      value = "true";
    }
    if (name.empty()) {
      return Status::InvalidArgument("empty flag name in '" + arg + "'");
    }
    if (values_.count(name) != 0) {
      return Status::InvalidArgument("duplicate flag --" + name);
    }
    values_[name] = std::move(value);
  }
  return Status::Ok();
}

Status FlagParser::Parse(int argc, const char* const* argv,
                         const std::vector<std::string_view>& known) {
  CULEVO_RETURN_IF_ERROR(Parse(argc, argv));
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::Ok();
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

long long FlagParser::GetInt(const std::string& name,
                             long long default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  long long parsed = 0;
  if (!ParseInt64(it->second, &parsed)) ExitInvalidValue(name, it->second);
  return parsed;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double parsed = 0.0;
  if (!ParseDouble(it->second, &parsed)) ExitInvalidValue(name, it->second);
  return parsed;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string lower = ToLower(it->second);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  ExitInvalidValue(name, it->second);
}

int FlagParser::GetIntIn(const std::string& name, int default_value,
                         int min, int max) const {
  const long long value = GetInt(name, default_value);
  if (value < min || value > max) RefuseValue(name);
  return static_cast<int>(value);
}

void FlagParser::RefuseValue(const std::string& name) const {
  ExitInvalidValue(name, GetString(name, ""));
}

}  // namespace culevo
