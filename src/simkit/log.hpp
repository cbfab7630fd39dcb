// Leveled, sim-time-stamped logging.
//
// The logger is attached to an Engine so every line carries the virtual
// timestamp of the event that produced it, which is what makes protocol
// traces (e.g. the Figure 5 timeline) legible.  Logging defaults to WARN in
// tests/benches and can be raised per-component.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "simkit/engine.hpp"

namespace grid::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

std::string_view to_string(LogLevel level);

class Logger {
 public:
  using Sink = std::function<void(std::string_view line)>;

  /// A logger that stamps lines with `engine`'s virtual clock and writes to
  /// stderr.  `component` prefixes every line (e.g. "gram/host3").
  Logger(const sim::Engine& engine, std::string component);

  /// Child logger sharing level and sink but with its own component tag.
  Logger child(std::string_view sub) const;

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  bool enabled(LogLevel level) const { return level >= level_; }
  void log(LogLevel level, std::string_view msg) const;

  /// Process-wide default level applied to newly created loggers.
  static void set_default_level(LogLevel level);
  static LogLevel default_level();

 private:
  const sim::Engine* engine_;
  std::string component_;
  LogLevel level_;
  Sink sink_;
};

/// One enabled log statement: collects the streamed operands and writes the
/// line when the statement ends.  Use it through GRID_LOG.
class LogLine {
 public:
  LogLine(const Logger& logger, LogLevel level)
      : logger_(logger), level_(level) {}
  ~LogLine() { logger_.log(level_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  const Logger& logger_;
  LogLevel level_;
  std::ostringstream os_;
};

/// Turns a streamed LogLine into void, so both arms of GRID_LOG's
/// conditional have the same type.  `&` binds more loosely than `<<` and
/// more tightly than `?:`, so every operand streams into the line first.
struct LogVoidify {
  void operator&(const LogLine&) {}
};

/// Streaming log statement: GRID_LOG(logger, kInfo) << "x=" << x;
/// A disabled level costs one comparison: no stream is built and no operand
/// is evaluated.  The statement is a single expression, so it is safe as
/// the body of an unbraced if/else.
#define GRID_LOG(logger, level)                                   \
  !(logger).enabled(::grid::util::LogLevel::level)                \
      ? (void)0                                                   \
      : ::grid::util::LogVoidify() &                              \
            ::grid::util::LogLine((logger), ::grid::util::LogLevel::level)

}  // namespace grid::util
