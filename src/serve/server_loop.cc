#include "serve/server_loop.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace irhint {
namespace serve {

namespace {

/// The line's whitespace-separated tokens (the same separators as
/// `std::istream >>`, so a CRLF line parses like an LF one).
std::vector<std::string_view> SplitTokens(std::string_view line) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::vector<std::string_view> tokens;
  size_t pos = line.find_first_not_of(kSpace);
  while (pos != std::string_view::npos) {
    const size_t end = std::min(line.find_first_of(kSpace, pos), line.size());
    tokens.push_back(line.substr(pos, end - pos));
    pos = line.find_first_not_of(kSpace, end);
  }
  return tokens;
}

/// An unsigned decimal filling the whole token: no sign, no trailing
/// characters, no overflow.
template <typename T>
bool ParseNumber(std::string_view token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Parses `[lead ...] <st> <end> [elem ...]` from tokens[1..]: one number
/// per `leading` pointer, then the interval and elements. A missing or
/// non-numeric token, or an interval/description that fails
/// ValidateObject, is an error.
template <typename... Leading>
Status ParseRequest(const std::vector<std::string_view>& tokens,
                    const char* usage, Interval* interval,
                    std::vector<ElementId>* elements, Leading*... leading) {
  constexpr size_t kFixed = sizeof...(Leading) + 2;
  if (tokens.size() < 1 + kFixed) {
    return Status::InvalidArgument(std::string(tokens[0]) + " needs " +
                                   usage);
  }
  size_t next = 1;
  const auto parse = [&](auto* field) {
    return ParseNumber(tokens[next++], field);
  };
  bool numeric = (parse(leading) && ...) && parse(&interval->st) &&
                 parse(&interval->end);
  elements->resize(tokens.size() - 1 - kFixed);
  for (size_t e = 0; numeric && e < elements->size(); ++e) {
    numeric = parse(&(*elements)[e]);
  }
  if (!numeric) {
    return Status::InvalidArgument(std::string(tokens[0]) +
                                   " takes unsigned integers: " + usage);
  }
  return ValidateObject(*interval, *elements);
}

void ReplyStatus(std::ostream& out, const Status& status) {
  if (status.ok()) {
    out << "OK\n";
  } else {
    out << "ERR " << status.ToString() << "\n";
  }
}

char* WriteHit(char* p, char* end, ObjectId id) {
  return std::to_chars(p, end, id).ptr;
}

char* WriteHit(char* p, char* end, const ScoredHit& hit) {
  p = std::to_chars(p, end, hit.id).ptr;
  *p++ = ':';
  return std::to_chars(p, end, hit.score).ptr;
}

/// Writes "OK <n> <hit> ...\n", a hit being "<id>" or "<id>:<score>", or
/// the error that replaced the hits. The digits go straight into
/// `buffer`, sized for the widest numbers, and leave in one write: a wide
/// result is thousands of ids, and per-id stream formatting cost more than
/// the engine took to find them.
template <typename Hit>
void ReplyHits(const StatusOr<std::vector<Hit>>& result, std::string* buffer,
               std::ostream& out) {
  if (!result.ok()) {
    ReplyStatus(out, result.status());
    return;
  }
  const std::vector<Hit>& hits = *result;
  constexpr size_t kCountDigits = std::numeric_limits<size_t>::digits10 + 1;
  constexpr size_t kIdDigits = std::numeric_limits<ObjectId>::digits10 + 1;
  constexpr size_t kHitChars =
      std::is_same_v<Hit, ScoredHit>
          ? kIdDigits + 1 + std::numeric_limits<uint64_t>::digits10 + 1
          : kIdDigits;
  buffer->resize(3 + kCountDigits + hits.size() * (1 + kHitChars) + 1);
  char* const begin = buffer->data();
  char* const end = begin + buffer->size();
  char* p = std::copy_n("OK ", 3, begin);
  p = std::to_chars(p, end, hits.size()).ptr;
  for (const Hit& hit : hits) {
    *p++ = ' ';
    p = WriteHit(p, end, hit);
  }
  *p++ = '\n';
  out.write(begin, p - begin);
}

void PrintStats(const EngineStats& stats, std::ostream& out) {
  out << "stat shards " << stats.shards.size() << "\n";
  out << "stat submitted " << stats.total_submitted << "\n";
  out << "stat shed " << stats.total_shed << "\n";
  out << "stat completed " << stats.total_completed << "\n";
  out << "stat executed_queries " << stats.total_executed_queries << "\n";
  out << "stat dedup_hits " << stats.total_dedup_hits << "\n";
  out << "stat updates_applied " << stats.total_updates_applied << "\n";
  out << "stat batches " << stats.total_batches << "\n";
  out << "stat queue_depth " << stats.max_queue_depth << "\n";
  out << "stat peak_queue_depth " << stats.max_peak_queue_depth << "\n";
}

}  // namespace

size_t RunServerLoop(ServeEngine* engine, std::istream& in,
                     std::ostream& out) {
  size_t commands = 0;
  std::string line;
  std::string reply;
  while (std::getline(in, line)) {
    const std::vector<std::string_view> tokens = SplitTokens(line);
    Interval interval;
    std::vector<ElementId> elements;
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string_view command = tokens[0];
    ++commands;

    if (command == "quit" || command == "exit") {
      out << "BYE\n";
      break;
    }
    if (command == "help") {
      out << "commands: query <st> <end> [elem ...] | topk <k> <st> <end> "
             "[elem ...] | insert <st> <end> [elem ...] | erase <id> <st> "
             "<end> [elem ...] | stats | flush | help | quit\n";
      continue;
    }
    if (command == "stats") {
      PrintStats(engine->Stats(), out);
      continue;
    }
    if (command == "flush") {
      ReplyStatus(out, engine->Flush());
      continue;
    }
    if (command == "query") {
      const Status parsed =
          ParseRequest(tokens, "<st> <end> [elem ...]", &interval, &elements);
      if (!parsed.ok()) {
        ReplyStatus(out, parsed);
        continue;
      }
      ReplyHits(engine->Execute(Query(interval, std::move(elements))), &reply,
                out);
      continue;
    }
    if (command == "topk") {
      uint32_t k = 0;
      const Status parsed = ParseRequest(tokens, "<k> <st> <end> [elem ...]",
                                         &interval, &elements, &k);
      if (!parsed.ok()) {
        ReplyStatus(out, parsed);
        continue;
      }
      ReplyHits(engine->ExecuteTopK(Query(interval, std::move(elements)), k),
                &reply, out);
      continue;
    }
    if (command == "insert") {
      const Status parsed =
          ParseRequest(tokens, "<st> <end> [elem ...]", &interval, &elements);
      if (!parsed.ok()) {
        ReplyStatus(out, parsed);
        continue;
      }
      StatusOr<ObjectId> id =
          engine->AppendInsert(interval, std::move(elements));
      if (!id.ok()) {
        ReplyStatus(out, id.status());
      } else {
        out << "OK id=" << *id << "\n";
      }
      continue;
    }
    if (command == "erase") {
      ObjectId id = 0;
      const Status parsed = ParseRequest(
          tokens, "<id> <st> <end> [elem ...]", &interval, &elements, &id);
      if (!parsed.ok()) {
        ReplyStatus(out, parsed);
        continue;
      }
      ReplyStatus(out, engine->Erase(Object(id, interval, std::move(elements))));
      continue;
    }
    out << "ERR unknown command '" << command << "' (try help)\n";
  }
  return commands;
}

}  // namespace serve
}  // namespace irhint
