#include "cli/flags.h"

#include "common/str_util.h"

namespace dbscout::cli {

Result<Flags> Flags::Parse(int argc, const char* const* argv) {
  if (argc < 2) {
    return Status::InvalidArgument("missing command");
  }
  DBSCOUT_ASSIGN_OR_RETURN(Flags flags, Tokenize(argc, argv, 2));
  flags.command_ = argv[1];
  return flags;
}

Result<Flags> Flags::ParseFlags(int argc, const char* const* argv) {
  return Tokenize(argc, argv, 1);
}

Result<Flags> Flags::Tokenize(int argc, const char* const* argv,
                              int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.size() < 3 || token[0] != '-' || token[1] != '-') {
      return Status::InvalidArgument("expected --flag[=value], got: " + token);
    }
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      flags.values_[token.substr(2)] = "";
    } else {
      flags.values_[token.substr(2, eq - 2)] = token.substr(eq + 1);
    }
  }
  return flags;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Result<double> Flags::GetDouble(const std::string& name,
                                double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  Result<double> parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("--" + name + ": " +
                                   parsed.status().message());
  }
  return parsed;
}

Result<uint64_t> Flags::GetUint(const std::string& name, uint64_t fallback,
                                uint64_t max) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  Result<uint64_t> parsed = ParseUint64(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("--" + name + ": " +
                                   parsed.status().message());
  }
  if (*parsed > max) {
    return Status::InvalidArgument(StrFormat(
        "--%s=%s exceeds %llu", name.c_str(), it->second.c_str(),
        static_cast<unsigned long long>(max)));
  }
  return parsed;
}

Status Flags::CheckAllowed(const std::vector<std::string>& allowed) const {
  for (const auto& [name, value] : values_) {
    bool known = false;
    for (const auto& candidate : allowed) {
      known |= candidate == name;
    }
    if (!known) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::OK();
}

Status Flags::CheckRequired(const std::vector<std::string>& required) const {
  for (const auto& name : required) {
    if (!Has(name)) {
      return Status::InvalidArgument("missing required flag --" + name);
    }
  }
  return Status::OK();
}

}  // namespace dbscout::cli
