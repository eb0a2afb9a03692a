/// \file main.cpp
/// hdtest-tidy fallback driver.
///
/// Usage:
///   hdtest-tidy [--check=NAME]... [--no-scope] [--list-checks] PATH...
///
/// PATH arguments are files or directories (directories are walked for
/// .cpp/.cc/.cxx/.hpp/.h). Diagnostics come out in clang-tidy's format
/// ("path:line:col: warning: message [check-name]") so editors, CI
/// annotations, and NOLINT comments behave identically whichever engine
/// produced them. Exit status is 1 when any diagnostic is emitted.
///
/// Each check applies only inside its contract's scope (see --list-checks);
/// --no-scope lifts the path filters, which the fixture tests use to lint
/// snippets living outside the real tree.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "checks.hpp"
#include "lexer.hpp"
#include "model.hpp"

namespace {

namespace fs = std::filesystem;
using namespace hdtest::tidy;

/// True when \p path contains directory component sequence \p dir (matched
/// at a component boundary, so "src/fuzz/" matches "src/fuzz/a.cpp" and
/// "/root/repo/src/fuzz/a.cpp" but not "mysrc/fuzz/a.cpp").
bool path_in(const std::string& path, std::string_view dir) {
  const std::size_t pos = path.find(dir);
  if (pos == std::string::npos) return false;
  return pos == 0 || path[pos - 1] == '/';
}

bool filename_is(const std::string& path, std::string_view stem) {
  const std::string name = fs::path(path).filename().string();
  return name.rfind(stem, 0) == 0 &&
         (name.size() == stem.size() || name[stem.size()] == '.');
}

bool in_determinism_scope(const std::string& path) {
  // src/obs/ is in scope MINUS its clock translation unit — that file is
  // the sanctioned wall-clock carve-out (obs::monotonic_ns), so the check
  // mechanically proves every other obs file stays clock-free.
  // The kernel selection TU and the scalar oracle are in scope: backend
  // selection and the reference every kernel is diffed against must be
  // bit-reproducible across runs.
  return path_in(path, "src/fuzz/") || path_in(path, "src/defense/") ||
         filename_is(path, "kernels") || filename_is(path, "kernels_oracle") ||
         (path_in(path, "src/obs/") && !filename_is(path, "clock"));
}

bool in_checked_arith_scope(const std::string& path) {
  return filename_is(path, "serialize") || filename_is(path, "mmap_file") ||
         (path_in(path, "src/data/") && filename_is(path, "idx")) ||
         path_in(path, "src/fuzz/fleet/durable/") ||
         path_in(path, "src/obs/") || filename_is(path, "kernels_oracle") ||
         (path_in(path, "src/fuzz/shard/") &&
          (filename_is(path, "ledger") || filename_is(path, "seed_bank"))) ||
         (path_in(path, "src/fuzz/fleet/") &&
          (filename_is(path, "wire") || filename_is(path, "protocol")));
}

bool in_simd_home(const std::string& path) {
  return path_in(path, "src/util/simd/");
}

bool has_source_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h";
}

void usage(std::ostream& os) {
  os << "usage: hdtest-tidy [--check=NAME]... [--no-scope] [--list-checks] "
        "PATH...\n";
}

void list_checks(std::ostream& os) {
  os << "hdtest-determinism\n"
        "    No ambient nondeterminism (unordered-container iteration, rand,\n"
        "    time, random_device, chrono ::now, thread ids) in campaign,\n"
        "    ledger, record, or report code. Scope: src/fuzz/, src/defense/,\n"
        "    kernels.* (kernel selection), kernels_oracle.*, src/obs/ (minus\n"
        "    the clock.* wall-clock carve-out).\n"
        "hdtest-dense-free\n"
        "    Functions reachable from an HDTEST_HOT_PATH annotation must not\n"
        "    materialize dense Hypervectors, call PackedHv::from_dense, or\n"
        "    heap-allocate. Scope: whole tree (annotation-driven).\n"
        "hdtest-checked-arith\n"
        "    Size arithmetic in wire-format code must go through\n"
        "    checked_mul/checked_add; raw-byte reads through BufReader.\n"
        "    Scope: serialize.*, mmap_file.*, shard ledger/seed_bank,\n"
        "    fleet wire/protocol, fleet durable/, src/obs/, kernels_oracle.*.\n"
        "hdtest-intrinsics-confined\n"
        "    Vendor SIMD intrinsics and headers only under src/util/simd/.\n"
        "    Scope: everything else.\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::set<std::string> enabled = {"hdtest-determinism", "hdtest-dense-free",
                                   "hdtest-checked-arith",
                                   "hdtest-intrinsics-confined"};
  std::set<std::string> requested;
  bool no_scope = false;
  std::vector<std::string> roots;

  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg == "--list-checks") {
      list_checks(std::cout);
      return 0;
    }
    if (arg == "--no-scope") {
      no_scope = true;
      continue;
    }
    if (arg.rfind("--check=", 0) == 0) {
      const std::string name(arg.substr(8));
      if (enabled.count(name) == 0) {
        std::cerr << "hdtest-tidy: unknown check '" << name << "'\n";
        return 2;
      }
      requested.insert(name);
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "hdtest-tidy: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
    roots.emplace_back(arg);
  }
  if (!requested.empty()) enabled = std::move(requested);
  if (roots.empty()) {
    usage(std::cerr);
    return 2;
  }

  std::vector<std::string> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file() && has_source_extension(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else if (fs::exists(root, ec)) {
      files.push_back(fs::path(root).generic_string());
    } else {
      std::cerr << "hdtest-tidy: no such file or directory: " << root << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  for (const auto& path : files) {
    try {
      lexed.push_back(lex_file(path));
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  SourceModel model;
  for (const auto& file : lexed) model.add_file(file);

  std::vector<Diagnostic> diags;
  for (const auto& file : lexed) {
    if (enabled.count("hdtest-determinism") != 0 &&
        (no_scope || in_determinism_scope(file.path))) {
      check_determinism(file, diags);
    }
    if (enabled.count("hdtest-checked-arith") != 0 &&
        (no_scope || in_checked_arith_scope(file.path))) {
      check_checked_arith(file, diags);
    }
    if (enabled.count("hdtest-intrinsics-confined") != 0 &&
        (no_scope || !in_simd_home(file.path))) {
      check_intrinsics_confined(file, diags);
    }
  }
  if (enabled.count("hdtest-dense-free") != 0) {
    std::vector<Diagnostic> dense;
    check_dense_free(model, dense);
    for (auto& d : dense) {
      // Scope note: the closure can reach simd-home kernels; those are
      // still hot-path code, so no path filter applies here.
      diags.push_back(std::move(d));
    }
  }

  std::sort(diags.begin(), diags.end(), [](const auto& a, const auto& b) {
    return std::tie(a.path, a.line, a.col, a.check) <
           std::tie(b.path, b.line, b.col, b.check);
  });
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const auto& a, const auto& b) {
                            return a.path == b.path && a.line == b.line &&
                                   a.col == b.col && a.check == b.check &&
                                   a.message == b.message;
                          }),
              diags.end());

  for (const auto& d : diags) {
    std::cout << d.path << ":" << d.line << ":" << d.col
              << ": warning: " << d.message << " [" << d.check << "]\n";
  }
  std::cerr << diags.size() << " warning" << (diags.size() == 1 ? "" : "s")
            << " generated (" << files.size() << " files scanned).\n";
  return diags.empty() ? 0 : 1;
}
