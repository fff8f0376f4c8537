#include "spans.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t nanos_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

int SpanLog::open(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(records_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  records_.push_back({name, request, parent,
                      nanos_between(origin_, Clock::now()), -1});
  open_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanLog: spans closed out of order");
  }
  records_[static_cast<std::size_t>(id)].end_ns =
      nanos_between(origin_, Clock::now());
  open_.pop_back();
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buffer[384];
  for (std::size_t id = 0; id < records_.size(); ++id) {
    const Record& record = records_[id];
    if (record.end_ns < 0) continue;
    const std::string name = record.name;
    const std::string category = name.substr(0, name.find('.'));
    // Timestamps in microseconds with nanosecond digits, so nesting is
    // exact when the file is read back.
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%lld.%03lld,\"dur\":%lld.%03lld,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}",
                  first ? "" : ",", record.name, category.c_str(),
                  static_cast<long long>(record.start_ns / 1000),
                  static_cast<long long>(record.start_ns % 1000),
                  static_cast<long long>(
                      (record.end_ns - record.start_ns) / 1000),
                  static_cast<long long>(
                      (record.end_ns - record.start_ns) % 1000),
                  id, record.parent, static_cast<long long>(record.request));
    out << buffer;
    first = false;
  }
  out << "\n]}\n";
  if (!out.good()) throw std::runtime_error("write to " + path + " failed");
}

}  // namespace perfbench
