// Self-tests for the benchmark's own logic (run by `run.py --selftest`,
// which then checks every workload's short run against BENCHMARK.json):
//
//  * the same seed gives the same command streams, another seed different
//    ones, for every workload and client;
//  * a corrupted reply fails the output check, and both it and a BUSY reply
//    count as failed commands.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "report.h"
#include "server/protocol.h"
#include "verify.h"
#include "workload.h"

namespace servebench {
namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// A deterministic stand-in answer: ok, echoing the command's radius, with
/// a size derived from the command text.
Reply FakeReply(const std::string& line) {
  Reply reply;
  reply.ok = true;
  for (const char* key : {"r=", "to="}) {
    const size_t at = line.find(key);
    if (at != std::string::npos) {
      reply.radius = std::strtod(line.c_str() + at + std::string(key).size(),
                                 nullptr);
    }
  }
  reply.size = Mix(std::hash<std::string>{}(line)) % 4000;
  return reply;
}

std::vector<std::string> Stream(const std::string& workload, uint64_t seed,
                                size_t client, size_t length) {
  std::unique_ptr<Script> script = MakeScript(workload, seed, client);
  std::vector<std::string> lines;
  Reply last;
  for (size_t i = 0; i < length; ++i) {
    lines.push_back(script->Next(i == 0 ? nullptr : &last));
    last = FakeReply(lines.back());
  }
  return lines;
}

void TestStreams() {
  for (const std::string& workload : WorkloadNames()) {
    for (size_t client = 0; client < 4; ++client) {
      const std::vector<std::string> a = Stream(workload, 7, client, 300);
      const std::vector<std::string> b = Stream(workload, 7, client, 300);
      const std::vector<std::string> c = Stream(workload, 8, client, 300);
      const std::string name = workload + " client " + std::to_string(client);
      Expect(a == b, name + ": same seed, same stream");
      Expect(a != c, name + ": other seed, other stream");
      Expect(a.front().rfind("OPEN ", 0) == 0, name + ": starts with OPEN");
    }
    const std::vector<std::string> first = Stream(workload, 7, 0, 50);
    const std::vector<std::string> second = Stream(workload, 7, 1, 50);
    Expect(first != second, workload + ": clients differ");
  }
}

void TestFailures() {
  const std::string open = "OPEN dataset=clustered n=400 dim=2 seed=9";
  const std::string command = "DIVERSIFY r=0.06";
  disc::Result<disc::Request> request = disc::ParseRequest(open);
  disc::Result<disc::OpenParams> params = disc::DecodeOpen(*request);
  params->config.threads = 1;
  disc::Result<std::unique_ptr<disc::DiscEngine>> engine =
      disc::DiscEngine::Create(params->config);
  disc::DiversifyRequest diversify;
  diversify.radius = 0.06;
  const std::string good = disc::SerializeDiversifyResponse(
      disc::Verb::kDiversify, *(*engine)->Diversify(diversify));
  std::string corrupted = good;
  const size_t digit = corrupted.find("\"solution\":[") + 12;
  corrupted[digit] = corrupted[digit] == '1' ? '2' : '1';
  const std::string busy = disc::SerializeError(
      "DIVERSIFY", disc::Status::Busy("server overloaded"));

  RunResult run;
  run.window_s = 1.0;
  for (const std::string& line : {good, corrupted, busy}) {
    const Reply reply = ParseReply(line);
    Record record;
    record.verb = disc::Verb::kDiversify;
    record.ok = reply.ok;
    record.busy = reply.code == "Busy";
    record.latency_ms = 1.0;
    if (reply.ok) {
      CheckItem item;
      item.verb = disc::Verb::kDiversify;
      item.dataset = open;
      item.command = command;
      item.body = reply.body;
      record.item = static_cast<uint32_t>(run.items.size());
      run.items.push_back(item);
    }
    run.records.push_back(record);
  }
  Expect(ParseReply(busy).code == "Busy", "BUSY line parses as Busy");
  const CheckResult check = CheckOutputs(run.items, 2, 0);
  Expect(check.item_ok.size() == 2 && check.item_ok[0] == 1,
         "a correct reply passes the check: " + check.first_mismatch);
  Expect(check.item_ok.size() == 2 && check.item_ok[1] == 0,
         "a corrupted reply fails the check");
  WorkloadSpec spec;
  MakeWorkload("explore-cold", 1, 4, &spec);
  const Report report = Summarize(spec, run, check);
  Expect(!report.correct, "a mismatch makes the run incorrect");
  Expect(report.attempted == 3, "three commands attempted");
  Expect(report.failed == 2, "the corrupted and the BUSY reply failed");
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestStreams();
  servebench::TestFailures();
  if (servebench::failures > 0) {
    std::fprintf(stderr, "%d self-test failure(s)\n", servebench::failures);
    return 1;
  }
  std::printf("servebench self-tests passed\n");
  return 0;
}
