// Serving layer (src/serve/, docs/SERVING.md): the JSON-lines job
// protocol, the ordered concurrent stream, byte-determinism at any worker
// count and job order, typed per-job errors, per-job trace isolation, and
// the shared caches. Suite names start with "Serve" so the TSan CI lane
// picks them up (ctest -R ... |Serve).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/json.h"

namespace nanomap {
namespace {

// A cheap real job: ex1 at a forced folding level finishes in tens of
// milliseconds, so whole streams stay tier-1 friendly.
ServeJob quick_job(std::uint64_t seed) {
  ServeJob job;
  job.circuit = "bench:ex1";
  job.level = 2;
  job.seed = seed;
  return job;
}

struct ServeRun {
  std::string output;
  ServeSummary summary;
};

ServeRun run_serve(const std::string& input, int workers,
                   ServeCaches* caches = nullptr) {
  ServeOptions options;
  options.workers = workers;
  options.threads = 4;
  std::istringstream in(input);
  std::ostringstream out;
  ServeRun r;
  r.summary = serve_jobs(in, out, options, caches);
  r.output = out.str();
  return r;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Drops the position-dependent "line" field so responses to the same job
// at different stream positions can be compared byte-for-byte.
std::string strip_line_field(const std::string& response) {
  std::string out = response;
  std::size_t at = out.find("\"line\":");
  EXPECT_NE(at, std::string::npos) << response;
  std::size_t end = out.find(',', at);
  EXPECT_NE(end, std::string::npos) << response;
  out.erase(at, end - at + 1);
  return out;
}

const JsonValue* get(const JsonValue& doc, const std::string& key) {
  const JsonValue* v = doc.find(key);
  EXPECT_NE(v, nullptr) << "missing key " << key;
  return v;
}

TEST(ServeJobLine, RoundTripsThroughTheRealParser) {
  ServeJob job;
  job.id = "my-job";
  job.circuit = "bench:FIR";
  job.objective = Objective::kMinDelay;
  job.seed = 1234567;
  job.level = 3;
  job.area = 128;
  job.delay = 55.5;
  job.arch_file = "x.arch";
  job.defects = "seed=7,le=0.01";
  job.no_share = true;
  job.deadline_ms = 250.0;
  job.trace = true;
  job.fault = "route.alloc:1";

  ServeJob parsed = parse_job_line(write_job_line(job), 1);
  EXPECT_EQ(parsed.id, job.id);
  EXPECT_EQ(parsed.circuit, job.circuit);
  EXPECT_EQ(parsed.objective, job.objective);
  ASSERT_TRUE(parsed.seed.has_value());
  EXPECT_EQ(*parsed.seed, *job.seed);
  EXPECT_EQ(parsed.level, job.level);
  EXPECT_EQ(parsed.area, job.area);
  EXPECT_EQ(parsed.delay, job.delay);
  EXPECT_EQ(parsed.arch_file, job.arch_file);
  EXPECT_EQ(parsed.defects, job.defects);
  EXPECT_EQ(parsed.no_share, job.no_share);
  EXPECT_EQ(parsed.deadline_ms, job.deadline_ms);
  EXPECT_EQ(parsed.trace, job.trace);
  EXPECT_EQ(parsed.fault, job.fault);

  // Defaults: only circuit survives serialization, and the parsed job
  // carries an unset seed (server default applies).
  ServeJob bare;
  bare.circuit = "bench:ex1";
  EXPECT_EQ(write_job_line(bare), "{\"circuit\":\"bench:ex1\"}");
  ServeJob bare_parsed = parse_job_line(write_job_line(bare), 3);
  EXPECT_FALSE(bare_parsed.seed.has_value());
  EXPECT_EQ(bare_parsed.level, -1);
  EXPECT_FALSE(bare_parsed.trace);
}

TEST(ServeJobLine, StrictParserRejectsHostileLines) {
  // Every rejection is a typed InputError naming the line.
  auto reject = [](const std::string& line) {
    try {
      parse_job_line(line, 7);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find("job line 7"), std::string::npos)
          << e.what();
    }
  };
  reject("");                                      // empty document
  reject("not json");                              // token garbage
  reject("[]");                                    // not an object
  reject("42");                                    // not an object
  reject("{}");                                    // missing circuit
  reject("{\"circuit\":\"\"}");                    // empty circuit
  reject("{\"circuit\":\"bench:ex1\"");            // truncated
  reject("{\"circuit\":\"bench:ex1\",\"bogus\":1}");        // unknown key
  reject("{\"circuit\":\"a\",\"circuit\":\"b\"}");          // duplicate key
  reject("{\"circuit\":42}");                      // wrong type
  reject("{\"circuit\":\"a\",\"seed\":-1}");       // negative seed
  reject("{\"circuit\":\"a\",\"seed\":1.5}");      // fractional seed
  reject("{\"circuit\":\"a\",\"seed\":1e300}");    // seed past 2^53
  reject("{\"circuit\":\"a\",\"level\":-2}");      // level below -1
  reject("{\"circuit\":\"a\",\"area\":-1}");       // negative area
  reject("{\"circuit\":\"a\",\"deadline_ms\":-5}");  // negative deadline
  reject("{\"circuit\":\"a\",\"trace\":\"yes\"}");   // bool as string
  reject("{\"circuit\":\"a\",\"objective\":\"fast\"}");  // bad token
}

// An in-memory stream pair that plays a client: the input side hands out
// one line per read and, in lockstep mode, releases line k+1 only once k
// response lines have been written (and reports EOF only after the last
// response), like a client that waits for each answer with its end of the
// stream held open. The output side records, for every response line,
// how many input lines had been read when it was written. A watchdog
// bounds every wait: if a response never comes, the input reports EOF
// and timed_out() turns true, so a server that withholds responses until
// more input arrives fails the test instead of hanging it.
class ClientStreams {
 public:
  ClientStreams(std::vector<std::string> lines, bool lockstep)
      : in_buf_(this), out_buf_(this), in_(&in_buf_), out_(&out_buf_),
        lines_(std::move(lines)), lockstep_(lockstep) {}
  ClientStreams(const ClientStreams&) = delete;
  ClientStreams& operator=(const ClientStreams&) = delete;

  std::istream& in() { return in_; }
  std::ostream& out() { return out_; }
  bool timed_out() const { return timed_out_; }
  const std::string& output() const { return output_; }
  // reads_at_response()[k]: input lines read when response k was written.
  const std::vector<std::size_t>& reads_at_response() const {
    return reads_at_response_;
  }

 private:
  static constexpr std::chrono::seconds kWatchdog{120};

  class InBuf : public std::streambuf {
   public:
    explicit InBuf(ClientStreams* s) : s_(s) {}

   protected:
    int_type underflow() override {
      std::unique_lock<std::mutex> lock(s_->mu_);
      const std::size_t k = s_->next_line_;
      if (s_->lockstep_ &&
          !s_->cv_.wait_for(lock, kWatchdog,
                            [&] { return s_->responses_ >= k; })) {
        s_->timed_out_ = true;
        return traits_type::eof();
      }
      if (k == s_->lines_.size()) return traits_type::eof();
      current_ = s_->lines_[k] + "\n";
      ++s_->next_line_;
      setg(current_.data(), current_.data(),
           current_.data() + current_.size());
      return traits_type::to_int_type(current_[0]);
    }

   private:
    ClientStreams* s_;
    std::string current_;
  };

  class OutBuf : public std::streambuf {
   public:
    explicit OutBuf(ClientStreams* s) : s_(s) {}

   protected:
    int_type overflow(int_type c) override {
      if (traits_type::eq_int_type(c, traits_type::eof()))
        return traits_type::not_eof(c);
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
      return c;
    }
    std::streamsize xsputn(const char* p, std::streamsize n) override {
      std::lock_guard<std::mutex> lock(s_->mu_);
      for (std::streamsize i = 0; i < n; ++i) {
        s_->output_.push_back(p[i]);
        if (p[i] != '\n') continue;
        s_->reads_at_response_.push_back(s_->next_line_);
        ++s_->responses_;
      }
      s_->cv_.notify_all();
      return n;
    }

   private:
    ClientStreams* s_;
  };

  InBuf in_buf_;
  OutBuf out_buf_;
  std::istream in_;
  std::ostream out_;
  const std::vector<std::string> lines_;
  const bool lockstep_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t next_line_ = 0;
  std::size_t responses_ = 0;
  bool timed_out_ = false;
  std::string output_;
  std::vector<std::size_t> reads_at_response_;
};

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

TEST(ServeStream, OneResponsePerNonBlankLineInInputOrder) {
  std::string input;
  for (int i = 0; i < 4; ++i)
    input += write_job_line(quick_job(100 + static_cast<std::uint64_t>(i))) +
             "\n";
  input.insert(input.find('\n') + 1, "\n");  // blank line after job 1

  ServeRun run = run_serve(input, /*workers=*/2);
  std::vector<std::string> responses = lines_of(run.output);
  ASSERT_EQ(responses.size(), 4u);  // the blank line got no response
  EXPECT_EQ(run.summary.jobs, 4);
  EXPECT_EQ(run.summary.done, 4);
  EXPECT_EQ(run.summary.feasible, 4);
  // Every done job splits its latency into queue wait + service time.
  ASSERT_EQ(run.summary.wait_ms.size(), 4u);
  ASSERT_EQ(run.summary.service_ms.size(), 4u);
  ASSERT_EQ(run.summary.latencies_ms.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(run.summary.wait_ms[i], 0.0);
    EXPECT_GT(run.summary.service_ms[i], 0.0);
    EXPECT_DOUBLE_EQ(run.summary.latencies_ms[i],
                     run.summary.wait_ms[i] + run.summary.service_ms[i]);
  }
  EXPECT_LE(run.summary.wait_p50_ms, run.summary.wait_p99_ms);
  EXPECT_LE(run.summary.service_p50_ms, run.summary.service_p99_ms);

  // Responses come back in input order: line numbers strictly ascend and
  // skip the blank line (1, 3, 4, 5).
  std::vector<double> expected_lines = {1, 3, 4, 5};
  for (std::size_t i = 0; i < responses.size(); ++i) {
    JsonValue doc = parse_json(responses[i]);
    EXPECT_EQ(get(doc, "line")->number, expected_lines[i]);
    EXPECT_EQ(get(doc, "status")->string, "done");
    EXPECT_EQ(get(doc, "serve_version")->number, 1.0);
    EXPECT_EQ(get(doc, "elapsed_ms")->number, 0.0);  // masked
  }
}

TEST(ServeStream, ByteIdenticalAcrossWorkerCountsAndReruns) {
  // A mixed stream: plain jobs, a traced job, an objective variant, and a
  // malformed line. Everything must come back byte-identical at workers
  // 1 and 4 and on a rerun.
  ServeJob first = quick_job(1);
  first.id = "dup";
  std::string input;
  input += write_job_line(first) + "\n";
  ServeJob traced = quick_job(2);
  traced.trace = true;
  input += write_job_line(traced) + "\n";
  input += "this line is not json\n";
  ServeJob delay = quick_job(3);
  delay.objective = Objective::kMinDelay;
  input += write_job_line(delay) + "\n";
  input += write_job_line(first) + "\n";  // byte-duplicate of job 1

  const std::string serial = run_serve(input, /*workers=*/1).output;
  EXPECT_EQ(serial, run_serve(input, /*workers=*/4).output);
  EXPECT_EQ(serial, run_serve(input, /*workers=*/4).output);

  // The duplicate job differs from job 1 only in its line number.
  std::vector<std::string> responses = lines_of(serial);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(strip_line_field(responses[0]), strip_line_field(responses[4]));
}

TEST(ServeStream, ShuffledJobOrderGivesSameResponsesPerJob) {
  std::vector<ServeJob> jobs;
  for (int i = 0; i < 4; ++i) {
    ServeJob job = quick_job(static_cast<std::uint64_t>(7 * i + 1));
    job.id = "j" + std::to_string(i);
    if (i == 2) job.objective = Objective::kMinArea;
    jobs.push_back(job);
  }
  auto stream_for = [&](const std::vector<std::size_t>& order) {
    std::string input;
    for (std::size_t idx : order) input += write_job_line(jobs[idx]) + "\n";
    return run_serve(input, /*workers=*/4).output;
  };

  std::vector<std::string> forward = lines_of(stream_for({0, 1, 2, 3}));
  std::vector<std::string> shuffled = lines_of(stream_for({2, 0, 3, 1}));
  ASSERT_EQ(forward.size(), 4u);
  ASSERT_EQ(shuffled.size(), 4u);
  // Same job -> same response bytes, regardless of stream position
  // (modulo the echoed line number).
  EXPECT_EQ(strip_line_field(forward[2]), strip_line_field(shuffled[0]));
  EXPECT_EQ(strip_line_field(forward[0]), strip_line_field(shuffled[1]));
  EXPECT_EQ(strip_line_field(forward[3]), strip_line_field(shuffled[2]));
  EXPECT_EQ(strip_line_field(forward[1]), strip_line_field(shuffled[3]));
}

TEST(ServeStream, InteractiveClientGetsEachResponseBeforeSendingMore) {
  // Each line goes in only after the previous response came out, with
  // the input held open until the last response: a server that waited
  // for more input (or for EOF) before starting a job would trip the
  // watchdog.
  std::vector<std::string> lines;
  for (std::uint64_t seed : {20, 21, 22})
    lines.push_back(write_job_line(quick_job(seed)));
  lines.push_back("not json");
  const std::string batch = run_serve(join_lines(lines), /*workers=*/1).output;

  for (int workers : {1, 4}) {
    ClientStreams client(lines, /*lockstep=*/true);
    ServeOptions options;
    options.workers = workers;
    options.threads = 4;
    const ServeSummary summary =
        serve_jobs(client.in(), client.out(), options);
    ASSERT_FALSE(client.timed_out())
        << "workers " << workers << ": a response never came while the "
        << "input was held open";
    EXPECT_EQ(summary.jobs, 4);
    // Same bytes as the batch run of the same stream.
    EXPECT_EQ(client.output(), batch) << "workers " << workers;
  }
}

TEST(ServeStream, StreamLongerThanTheInFlightWindowIsByteIdentical) {
  // 80 lines against the in-flight window of max(64, 8 * workers) = 64:
  // a real job every tenth line keeps the window full while cheap
  // rejected lines stream past it.
  constexpr std::size_t kWindow = 64;
  std::vector<std::string> lines;
  for (int i = 0; i < 80; ++i) {
    if (i % 10 == 0) {
      ServeJob job = quick_job(static_cast<std::uint64_t>(i));
      if (i % 20 == 10) job.objective = Objective::kMinDelay;
      lines.push_back(write_job_line(job));
    } else if (i % 2 == 1) {
      lines.push_back("line " + std::to_string(i) + " is not json");
    } else {
      lines.push_back("{\"circuit\":\"bench:no_such_circuit\"}");
    }
  }
  ASSERT_GT(lines.size(), kWindow);

  std::string reference;
  for (int workers : {1, 2, 4}) {
    ClientStreams client(lines, /*lockstep=*/false);
    ServeOptions options;
    options.workers = workers;
    options.threads = 4;
    const ServeSummary summary =
        serve_jobs(client.in(), client.out(), options);
    EXPECT_EQ(summary.jobs, 80);
    EXPECT_EQ(summary.done, 8);
    EXPECT_EQ(summary.rejected, 72);
    if (workers == 1)
      reference = client.output();
    else
      EXPECT_EQ(client.output(), reference) << "workers " << workers;
    EXPECT_EQ(lines_of(client.output()).size(), 80u);

    // Backpressure: the reader is never more than the window ahead of
    // the responses already written (response k needs line k, so
    // reads[k] > k).
    const std::vector<std::size_t>& reads = client.reads_at_response();
    ASSERT_EQ(reads.size(), 80u);
    std::size_t ahead = 0;
    for (std::size_t k = 0; k < reads.size(); ++k)
      ahead = std::max(ahead, reads[k] - k);
    EXPECT_LE(ahead, kWindow) << "workers " << workers;
  }
}

TEST(ServeErrors, MalformedLinesAreTypedAndDontKillTheStream) {
  std::string input;
  input += write_job_line(quick_job(1)) + "\n";
  input += "{{{ token soup )))\n";
  input += "{\"circuit\":\"bench:ex1\",\"mystery\":true}\n";
  input += "{\"circuit\":\"bench:no-such-benchmark\"}\n";
  input += write_job_line(quick_job(2)) + "\n";

  ServeRun run = run_serve(input, /*workers=*/2);
  std::vector<std::string> responses = lines_of(run.output);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(run.summary.done, 2);
  EXPECT_EQ(run.summary.rejected, 3);
  EXPECT_EQ(run.summary.failed, 0);

  JsonValue soup = parse_json(responses[1]);
  EXPECT_EQ(get(soup, "status")->string, "rejected");
  EXPECT_EQ(get(soup, "error")->string, "parse");
  EXPECT_EQ(get(soup, "exit_code")->number, 2.0);
  EXPECT_EQ(get(soup, "ok")->boolean, false);
  EXPECT_EQ(get(soup, "id")->string, "job-2");  // parse failed: default id

  JsonValue unknown_key = parse_json(responses[2]);
  EXPECT_EQ(get(unknown_key, "error")->string, "parse");
  JsonValue bad_bench = parse_json(responses[3]);
  EXPECT_EQ(get(bad_bench, "status")->string, "rejected");
  EXPECT_EQ(get(bad_bench, "error")->string, "input");  // parsed, bad spec

  // The siblings completed normally.
  EXPECT_EQ(get(parse_json(responses[0]), "status")->string, "done");
  EXPECT_EQ(get(parse_json(responses[4]), "status")->string, "done");
}

TEST(ServeErrors, ExpiredDeadlineIsTypedAndAdmissionOnly) {
  // workers=1 runs jobs in input order, so by the time the second job is
  // admitted the first (a real flow run) has consumed its microscopic
  // deadline. The first job has none and must be unaffected.
  ServeJob expired = quick_job(2);
  expired.id = "too-late";
  expired.deadline_ms = 0.0001;
  std::string input = write_job_line(quick_job(1)) + "\n" +
                      write_job_line(expired) + "\n" +
                      write_job_line(quick_job(3)) + "\n";

  ServeRun run = run_serve(input, /*workers=*/1);
  std::vector<std::string> responses = lines_of(run.output);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(run.summary.done, 2);
  EXPECT_EQ(run.summary.deadline_expired, 1);

  JsonValue doc = parse_json(responses[1]);
  EXPECT_EQ(get(doc, "status")->string, "deadline");
  EXPECT_EQ(get(doc, "error")->string, "deadline");
  EXPECT_EQ(get(doc, "exit_code")->number, 1.0);
  EXPECT_EQ(get(doc, "ok")->boolean, false);
  EXPECT_EQ(get(doc, "id")->string, "too-late");
  EXPECT_EQ(doc.find("report"), nullptr);  // never ran
  // The stream survived: both siblings ran to done.
  EXPECT_EQ(get(parse_json(responses[0]), "status")->string, "done");
  EXPECT_EQ(get(parse_json(responses[2]), "status")->string, "done");
}

TEST(ServeErrors, FaultInjectedJobLeavesSiblingsByteIdentical) {
  ServeJob faulty = quick_job(2);
  faulty.fault = "fds.schedule:1:check";
  const std::string with_fault = write_job_line(quick_job(1)) + "\n" +
                                 write_job_line(faulty) + "\n" +
                                 write_job_line(quick_job(3)) + "\n";
  // Same stream with the faulty job replaced by a blank line, so the
  // sibling line numbers are identical.
  const std::string without = write_job_line(quick_job(1)) + "\n\n" +
                              write_job_line(quick_job(3)) + "\n";

  std::vector<std::string> faulted =
      lines_of(run_serve(with_fault, /*workers=*/2).output);
  std::vector<std::string> clean =
      lines_of(run_serve(without, /*workers=*/2).output);
  ASSERT_EQ(faulted.size(), 3u);
  ASSERT_EQ(clean.size(), 2u);
  EXPECT_EQ(faulted[0], clean[0]);
  EXPECT_EQ(faulted[2], clean[1]);

  // The faulted job itself got a typed response (the flow either
  // recovered from the injected failure or reported it cleanly).
  JsonValue doc = parse_json(faulted[1]);
  EXPECT_EQ(get(doc, "status")->string, "done");
}

TEST(ServeTrace, PerJobTraceIsolationAtAnyWorkerCount) {
  ServeJob a = quick_job(1);
  a.trace = true;
  ServeJob b = quick_job(2);
  b.objective = Objective::kMinArea;
  b.trace = true;

  // Concurrently as siblings...
  const std::string both = write_job_line(a) + "\n" + write_job_line(b) +
                           "\n";
  std::vector<std::string> together =
      lines_of(run_serve(both, /*workers=*/2).output);
  ASSERT_EQ(together.size(), 2u);
  // ...and each alone (blank padding keeps b on line 2).
  std::vector<std::string> solo_a =
      lines_of(run_serve(write_job_line(a) + "\n", /*workers=*/1).output);
  std::vector<std::string> solo_b = lines_of(
      run_serve("\n" + write_job_line(b) + "\n", /*workers=*/1).output);
  ASSERT_EQ(solo_a.size(), 1u);
  ASSERT_EQ(solo_b.size(), 1u);

  // A traced job's report (stage tree, counters, values) is identical
  // whether it ran alone or next to another traced job: nothing leaked
  // between the two collectors.
  EXPECT_EQ(together[0], solo_a[0]);
  EXPECT_EQ(together[1], solo_b[0]);

  // And the traced sections are really there.
  const JsonValue doc = parse_json(together[0]);
  const JsonValue* report = get(doc, "report");
  const JsonValue* counters = report->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->items.size(), 0u);
  // No serve-layer counter may ride in response bytes — cache hit/miss
  // fate depends on sibling interleaving.
  for (const JsonValue& row : counters->items) {
    const JsonValue* site = row.find("site");
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->string.rfind("serve.", 0), std::string::npos)
        << site->string;
  }
}

// Which job builds a shared RR prototype depends on the job stream, and
// the RrGraph constructor records defect.wire_masked. A traced defect
// job's report must not change when an earlier job already built the
// prototype it routes on.
TEST(ServeTrace, TracedReportIgnoresWhoBuiltTheRrPrototype) {
  ServeJob job = quick_job(1);
  job.id = "a";
  job.defects = "seed=7,wire=0.05";
  job.trace = true;
  ServeJob earlier = job;
  earlier.id = "b";

  const std::vector<std::string> solo =
      lines_of(run_serve("\n" + write_job_line(job) + "\n", 1).output);
  const std::vector<std::string> after = lines_of(
      run_serve(write_job_line(earlier) + "\n" + write_job_line(job) + "\n",
                1)
          .output);
  ASSERT_EQ(solo.size(), 1u);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_NE(solo[0].find("\"counters\""), std::string::npos);
  EXPECT_EQ(after[1], solo[0]);
}

TEST(ServeCache, CountsAreDeterministicAndSharedAcrossJobs) {
  std::string input;
  for (int i = 0; i < 4; ++i)
    input += write_job_line(quick_job(static_cast<std::uint64_t>(i))) + "\n";

  ServeCaches serial_caches;
  run_serve(input, /*workers=*/1, &serial_caches);
  ServeCaches::Stats serial = serial_caches.stats();
  // One distinct circuit and one distinct arch across 4 jobs.
  EXPECT_EQ(serial.design_misses, 1);
  EXPECT_EQ(serial.design_hits, 3);
  EXPECT_EQ(serial.arch_misses, 1);
  EXPECT_EQ(serial.arch_hits, 3);
  // All jobs land on the same grid, so the RR prototype builds once.
  EXPECT_GE(serial.rr_misses, 1);
  EXPECT_GE(serial.rr_hits, 1);
  EXPECT_GE(serial.rr_hits + serial.rr_misses, 4);

  // Misses count distinct keys (builds happen under the cache lock), so
  // the whole stats block is worker-count invariant.
  ServeCaches parallel_caches;
  run_serve(input, /*workers=*/4, &parallel_caches);
  ServeCaches::Stats parallel = parallel_caches.stats();
  EXPECT_EQ(parallel.design_misses, serial.design_misses);
  EXPECT_EQ(parallel.design_hits, serial.design_hits);
  EXPECT_EQ(parallel.arch_misses, serial.arch_misses);
  EXPECT_EQ(parallel.arch_hits, serial.arch_hits);
  EXPECT_EQ(parallel.rr_misses, serial.rr_misses);
  EXPECT_EQ(parallel.rr_hits, serial.rr_hits);
}

TEST(ServeExit, PerJobExitCodesFollowTheCliTaxonomy) {
  // 0 feasible / 1 clean infeasible / 2 input error; all three in one
  // stream, none killing the others.
  ServeJob infeasible = quick_job(2);
  infeasible.objective = Objective::kMeetBoth;
  infeasible.area = 1;       // one LE can't hold ex1
  infeasible.delay = 0.001;  // nor can it run in a picosecond
  std::string input = write_job_line(quick_job(1)) + "\n" +
                      write_job_line(infeasible) + "\n" +
                      "{\"circuit\":\"bench:ex1\",\"level\":\"two\"}\n";

  ServeRun run = run_serve(input, /*workers=*/2);
  std::vector<std::string> responses = lines_of(run.output);
  ASSERT_EQ(responses.size(), 3u);

  JsonValue ok = parse_json(responses[0]);
  EXPECT_EQ(get(ok, "exit_code")->number, 0.0);
  EXPECT_EQ(get(ok, "ok")->boolean, true);
  EXPECT_EQ(get(ok, "error")->string, "none");

  JsonValue infeasible_doc = parse_json(responses[1]);
  EXPECT_EQ(get(infeasible_doc, "status")->string, "done");
  EXPECT_EQ(get(infeasible_doc, "exit_code")->number, 1.0);
  EXPECT_EQ(get(infeasible_doc, "ok")->boolean, false);
  EXPECT_NE(get(infeasible_doc, "error")->string, "none");

  JsonValue bad = parse_json(responses[2]);
  EXPECT_EQ(get(bad, "exit_code")->number, 2.0);
  EXPECT_EQ(get(bad, "status")->string, "rejected");
}

TEST(ServeResponse, HostileJobIdsStayOnOneEscapedLine) {
  ServeJob job;
  job.circuit = "bench:ex1";
  job.level = 2;
  job.seed = 1;
  job.id = "we\"ird\nid\twith\\junk";
  ServeRun run = run_serve(write_job_line(job) + "\n", /*workers=*/1);
  std::vector<std::string> responses = lines_of(run.output);
  ASSERT_EQ(responses.size(), 1u);  // newline in the id didn't split it
  JsonValue doc = parse_json(responses[0]);
  EXPECT_EQ(get(doc, "id")->string, job.id);
}

}  // namespace
}  // namespace nanomap
