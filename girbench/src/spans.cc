#include "spans.h"

#include <cstdio>

namespace girbench {

namespace {

std::string Escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendEvent(std::string* out, const char* name, const char* cat,
                 const char* ph, uint32_t tid, double ts_ms,
                 const std::string& extra) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"pid\":1,"
                "\"tid\":%u,\"ts\":%.3f",
                name, cat, ph, tid, ts_ms * 1000.0);
  if (!out->empty() && out->back() == '}') out->append(",\n");
  out->append(buf);
  out->append(extra);
  out->push_back('}');
}

}  // namespace

std::string ChromeTraceJson(
    const std::vector<Span>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  std::string events;
  events.reserve(spans.size() * 128);
  static const char* kTrackNames[] = {"", "main", "generator", "server",
                                      "writer"};
  for (uint32_t tid = kMainTrack; tid <= kWriterTrack; ++tid) {
    AppendEvent(&events, "thread_name", "__metadata", "M", tid, 0.0,
                std::string(",\"args\":{\"name\":\"") + kTrackNames[tid] +
                    "\"}");
  }
  char buf[96];
  for (const Span& s : spans) {
    if (s.req < 0) {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    s.duration_ms() * 1000.0);
      AppendEvent(&events, s.name, s.cat, "X", s.tid, s.start_ms, buf);
    } else {
      std::snprintf(buf, sizeof(buf), ",\"id\":%lld",
                    static_cast<long long>(s.req));
      AppendEvent(&events, s.name, s.cat, "b", s.tid, s.start_ms, buf);
      AppendEvent(&events, s.name, s.cat, "e", s.tid, s.end_ms, buf);
    }
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
  for (size_t i = 0; i < metadata.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "\"" + Escaped(metadata[i].first) + "\":\"" +
           Escaped(metadata[i].second) + "\"";
  }
  out += "},\n\"traceEvents\":[\n";
  out += events;
  out += "\n]}\n";
  return out;
}

}  // namespace girbench
