#ifndef DBSCOUT_CLI_FLAGS_H_
#define DBSCOUT_CLI_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace dbscout::cli {

/// Parsed command line of the form:
///   dbscout <command> --flag=value --switch ...
/// or, for the single-purpose binaries (dbscout_serve, dbscout_client),
/// the same without the command word. Flags are "--name=value" or bare
/// "--name" (value ""); a repeated flag keeps its last value. Positional
/// arguments are rejected (every input is a named flag, which keeps
/// invocations self-describing in shell history).
class Flags {
 public:
  /// Parses argv[1..); argv[1] is the command. Fails on malformed tokens.
  static Result<Flags> Parse(int argc, const char* const* argv);

  /// Parses argv[1..) as flags only; command() is empty.
  static Result<Flags> ParseFlags(int argc, const char* const* argv);

  const std::string& command() const { return command_; }

  bool Has(const std::string& name) const {
    return values_.find(name) != values_.end();
  }

  /// Typed getters: error when present-but-malformed, fallback when absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const;
  Result<double> GetDouble(const std::string& name, double fallback) const;
  /// Also an error when the value exceeds `max`, the largest value the
  /// caller's field can hold (so nothing is narrowed into a different one).
  Result<uint64_t> GetUint(const std::string& name, uint64_t fallback,
                           uint64_t max) const;
  bool GetBool(const std::string& name) const { return Has(name); }

  /// Returns an error naming any flag not in `allowed` (typo protection).
  Status CheckAllowed(const std::vector<std::string>& allowed) const;

  /// Returns an error naming any flag of `required` that is missing.
  Status CheckRequired(const std::vector<std::string>& required) const;

 private:
  /// The one tokenizer: argv[first..) as --flag[=value] tokens.
  static Result<Flags> Tokenize(int argc, const char* const* argv,
                                int first);

  std::string command_;
  std::map<std::string, std::string> values_;
};

}  // namespace dbscout::cli

#endif  // DBSCOUT_CLI_FLAGS_H_
