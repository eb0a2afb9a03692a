#pragma once
/// \file argparse.hpp
/// Minimal command-line flag parser for the example and bench binaries.
///
/// Supported syntax: `--key=value`, `--key value`, and boolean `--flag`.
/// Unknown flags raise an error listing the registered options, so typos in
/// experiment scripts fail loudly instead of silently using defaults.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hdtest::util {

/// Declarative flag registry + parser.
///
/// \code
///   ArgParser args("fuzz_campaign", "Runs a full HDTest campaign");
///   args.add_flag("strategy", "gauss", "Mutation strategy");
///   args.add_flag("dim", "4096", "hypervector dimensionality");
///   args.add_bool("verbose", "Enable info logging");
///   args.parse(argc, argv);       // throws std::invalid_argument on bad input
///   auto dim = args.get_u64("dim");
/// \endcode
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers a string-valued flag with a default.
  void add_flag(const std::string& name, std::string default_value,
                std::string help);

  /// Registers a boolean flag (default false; presence sets it true).
  void add_bool(const std::string& name, std::string help);

  /// Parses argv. Throws std::invalid_argument on unknown flags, missing
  /// values, or malformed input. Recognizes --help by setting help_requested().
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool help_requested() const noexcept { return help_requested_; }

  /// Usage text listing all registered flags.
  [[nodiscard]] std::string usage() const;

  /// Accessors; throw std::out_of_range for unregistered names and
  /// std::invalid_argument when conversion fails.
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] std::int64_t get_i64(const std::string& name) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;

  /// True if the flag was explicitly present on the command line.
  [[nodiscard]] bool was_set(const std::string& name) const;

  /// Positional arguments (everything not starting with --).
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    bool is_bool = false;
    bool set_on_cli = false;
  };

  const Flag& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positionals_;
  bool help_requested_ = false;
};

}  // namespace hdtest::util
