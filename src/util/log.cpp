#include "util/log.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace bftbc {

namespace {

LogLevel env_log_level() {
  const char* env = std::getenv("BFTBC_LOG");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}

LogLevel g_level = env_log_level();
LogTimeSource g_time_source;

const char* level_tag(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarn: return "W";
    case LogLevel::kError: return "E";
    case LogLevel::kOff: return "?";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel lvl) { g_level = lvl; }

void set_log_time_source(LogTimeSource src) {
  g_time_source = std::move(src);
}

void clear_log_time_source() { g_time_source = nullptr; }

namespace detail {

void log_emit(LogLevel lvl, const std::string& msg) {
  if (g_time_source) {
    const std::uint64_t ns = g_time_source();
    std::fprintf(stderr, "[%s %llu.%06llums] %s\n", level_tag(lvl),
                 static_cast<unsigned long long>(ns / 1000000),
                 static_cast<unsigned long long>(ns % 1000000), msg.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s\n", level_tag(lvl), msg.c_str());
  }
}

}  // namespace detail
}  // namespace bftbc
