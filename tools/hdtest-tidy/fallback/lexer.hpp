#pragma once
/// \file lexer.hpp
/// Token-level model of a C++ source file for the hdtest-tidy fallback
/// engine.
///
/// The engine needs no clang AST headers, so it works on a faithful token
/// stream instead of an AST: comments, string/char literals, and raw
/// strings are stripped (never matched by checks), preprocessor lines are
/// kept separately (the intrinsics check needs include lines), and
/// clang-tidy's NOLINT / NOLINTNEXTLINE / NOLINTBEGIN / NOLINTEND
/// suppression comments are honored with the same syntax.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hdtest::tidy {

enum class TokKind {
  kIdentifier,  ///< identifiers and keywords
  kNumber,
  kString,    ///< string literal (text is the raw spelling)
  kCharLit,   ///< character literal
  kPunct,     ///< operators/punctuation; 2-char operators are one token
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  ///< 1-based
  int col = 0;   ///< 1-based
};

/// A preprocessor logical line (continuations folded), e.g.
/// "#include <immintrin.h>".
struct PpLine {
  std::string text;
  int line = 0;
};

/// One NOLINT-family suppression parsed out of a comment.
struct Suppression {
  enum class Kind { kLine, kNextLine, kBegin, kEnd } kind;
  /// Check names listed in parentheses; empty means "all checks" (bare
  /// NOLINT), which the repo's lint policy forbids but the engine honors.
  std::vector<std::string> checks;
  int line = 0;
};

struct LexedFile {
  std::string path;  ///< as given to lex_file (diagnostic spelling)
  std::vector<Token> tokens;
  std::vector<PpLine> pp_lines;
  std::vector<Suppression> suppressions;

  /// True when a finding of \p check on \p line is silenced by a NOLINT,
  /// NOLINTNEXTLINE, or enclosing NOLINTBEGIN/NOLINTEND.
  [[nodiscard]] bool suppressed(std::string_view check, int line) const;
};

/// Tokenizes \p contents. Never throws on malformed input: an unterminated
/// literal or comment simply ends at EOF (the real compiler will reject the
/// file; the linter must not crash before it).
[[nodiscard]] LexedFile lex(std::string path, std::string_view contents);

/// Reads and tokenizes a file. \throws std::runtime_error if unreadable.
[[nodiscard]] LexedFile lex_file(const std::string& path);

}  // namespace hdtest::tidy
