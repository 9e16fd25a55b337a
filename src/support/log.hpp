// Minimal thread-safe leveled logger.
//
// Parallel engines tag each line with the emitting task's name so traces of
// master/TSW/CLW interleavings stay readable. Logging defaults to `Info`;
// benches turn it down to `Warn` to keep table output clean.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace pts {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits one line (thread-safe, single write to stderr).
void log_line(LogLevel level, const std::string& tag, const std::string& message);

namespace detail {

/// One line under construction. The threshold is checked when the line
/// starts: a line it drops builds no stream, formats no field and writes
/// nothing.
class LogStream {
 public:
  LogStream(LogLevel level, std::string tag) : level_(level) {
    if (level_ >= log_level()) {
      tag_ = std::move(tag);
      out_.emplace();
    }
  }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() {
    if (out_) log_line(level_, tag_, out_->str());
  }

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (out_) *out_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string tag_;
  std::optional<std::ostringstream> out_;  // engaged iff the line is kept
};

}  // namespace detail

inline detail::LogStream log_trace(std::string tag = {}) {
  return {LogLevel::Trace, std::move(tag)};
}
inline detail::LogStream log_debug(std::string tag = {}) {
  return {LogLevel::Debug, std::move(tag)};
}
inline detail::LogStream log_info(std::string tag = {}) {
  return {LogLevel::Info, std::move(tag)};
}
inline detail::LogStream log_warn(std::string tag = {}) {
  return {LogLevel::Warn, std::move(tag)};
}
inline detail::LogStream log_error(std::string tag = {}) {
  return {LogLevel::Error, std::move(tag)};
}

}  // namespace pts
