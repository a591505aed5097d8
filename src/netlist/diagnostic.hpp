#pragma once

/// \file diagnostic.hpp
/// Source provenance and diagnostics for the staged netlist front-end.
/// Every token the lexer produces carries a (file, line, column) triple;
/// errors and accept-and-warn notices format it as "file:line:col" so a
/// user can jump straight to the offending card even through .include
/// chains and subckt expansion.

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sscl::netlist {

/// A position in the (possibly multi-file) deck source. \p file indexes
/// the FileTable of the parse that produced it; 0 is the top-level deck.
struct SourceLoc {
  int file = 0;
  int line = 0;  ///< 1-based physical line (0 = no location)
  int col = 0;   ///< 1-based column of the token start (0 = unknown)
};

/// Interns the file names seen by one parse (the deck itself plus every
/// .include target) so SourceLoc stays a trivially copyable value.
class FileTable {
 public:
  int intern(std::string name) {
    names_.push_back(std::move(name));
    return static_cast<int>(names_.size()) - 1;
  }
  const std::string& name(int index) const { return names_[index]; }
  int size() const { return static_cast<int>(names_.size()); }

  /// "file:line:col" (omitting col when unknown, ":0" lines kept so a
  /// whole-deck error still names the file).
  std::string format(const SourceLoc& loc) const {
    std::string out =
        (loc.file >= 0 && loc.file < size() ? names_[loc.file] : "<deck>");
    out += ":" + std::to_string(loc.line);
    if (loc.col > 0) out += ":" + std::to_string(loc.col);
    return out;
  }

 private:
  std::vector<std::string> names_;
};

/// A non-fatal notice collected during lexing/elaboration (unknown
/// dot-cards, ignored cards, ...). With ParseOptions::strict these are
/// promoted to NetlistError instead.
struct Diagnostic {
  SourceLoc loc;
  std::string message;   ///< message body, no location prefix
  std::string location;  ///< pre-formatted "file:line:col"
};

/// Fatal front-end failure. The what() string already contains the
/// formatted location; loc() gives callers the raw line number.
class NetlistError : public std::runtime_error {
 public:
  NetlistError(SourceLoc loc, std::string location, const std::string& message)
      : std::runtime_error(location + ": " + message),
        loc_(loc),
        location_(std::move(location)),
        message_(message) {}

  const SourceLoc& loc() const { return loc_; }
  const std::string& location() const { return location_; }
  const std::string& message() const { return message_; }

 private:
  SourceLoc loc_;
  std::string location_;
  std::string message_;
};

}  // namespace sscl::netlist
