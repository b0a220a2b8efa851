// svc-stream: an in-process svc::Service fed by an open-loop generator.
//
// Tenants: kTenants Poisson tenants, one session shard each, built during
// set-up (build, traffic snapshot, a conversion to global RG begun). Their
// superposed arrivals form one Poisson stream; each line is handed to
// Service::run at its due time through a streambuf that releases lines on
// schedule, and each response is stamped when its newline is written.
// Latency runs from the due time to the response, so it includes the wait
// a read spends in a batch that only closes on a boundary line.
//
// Op mix: reads (query / what_if at the deadline tiers bench_service uses,
// plus a rare design) beside writes (fault batches drawn from each
// tenant's fault scenario, conversion advances). Service settings are the
// flattree_svc defaults (batch 8, eps 0.12, snapshot every 32 groups) with
// --incremental on, so the inc warm engines serve batch-of-one reads; the
// v2 journal and snapshots go to memory.
//
// Phases: each unit is one phase of kPhaseLines lines, alternately nominal
// and burst. Nominal phases offer kNominalRps (latency, SLO hits; a run's
// nominal phases pool at least 1000 requests, so svc.p99_ms is a genuine
// p99). A burst has all its lines due at once: the
// rate the service drains bursts at is the highest offered rate it
// sustains without a growing backlog (svc.max_rps). All lines and their
// unit-rate gaps are generated in set-up; a phase's rate only scales the
// gaps. A design costs about ten reads and stalls the line reader while it
// runs, so it is the same small search every time and joins every phase at
// its middle line: each phase then carries the same stall whatever the
// seed.
//
// Tenants are k=6 fabrics with a 36-server broadcast traffic snapshot; a
// read then costs a few ms, so the nominal rate loads the service to about
// 15% and latency is mostly the arrival-driven batch wait, not queueing
// behind slow evaluations (at 40% load the latency figures swung with the
// host's speed far beyond any useful bound).

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <thread>

#include "core/flat_tree.hpp"
#include "fault/scenario.hpp"
#include "obs/json.hpp"
#include "perfbench.hpp"
#include "svc/svc.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace flattree;

constexpr std::uint32_t kTenants = 4;
constexpr std::uint32_t kTenantK = 6;
constexpr double kNominalRps = 160.0;
constexpr std::size_t kPhaseLines = 250;
constexpr std::size_t kWarmUpLines = 50;
constexpr std::size_t kTemplateLines = 12000;
constexpr double kDeadlineTiers[] = {0.05, 50.0, 250.0, 0.0};  // 0 = none

struct Line {
  std::string text;
  double gap = 0.0;          ///< unit-rate exponential inter-arrival
  double deadline_ms = 0.0;  ///< 0 = none
};

/// Releases one line per underflow(), not before its due time.
class ScheduledInput : public std::streambuf {
 public:
  ScheduledInput(const std::vector<std::string>& lines, const std::vector<double>& due_s,
                 Clock::time_point t0)
      : lines_(lines), due_s_(due_s), t0_(t0) {}

  std::vector<double> late_ms;  ///< sleep overshoot past the due time (0 if not slept)

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == lines_.size()) return traits_type::eof();
    const auto due = t0_ + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(due_s_[next_]));
    if (Clock::now() < due) {
      OBS_SPAN("gen.wait");
      std::this_thread::sleep_until(due);
      late_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    } else {
      late_ms.push_back(0.0);
    }
    buf_ = lines_[next_];
    buf_ += '\n';
    ++next_;
    setg(buf_.data(), buf_.data(), buf_.data() + buf_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::vector<std::string>& lines_;
  const std::vector<double>& due_s_;
  Clock::time_point t0_;
  std::size_t next_ = 0;
  std::string buf_;
};

/// Collects the response stream and stamps each completed line.
class ResponseClock : public std::streambuf {
 public:
  std::string text;
  std::vector<Clock::time_point> stamps;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) put(traits_type::to_char_type(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    text += c;
    if (c == '\n') stamps.push_back(Clock::now());
  }
};

/// Per-line measurements pooled over phases.
struct Samples {
  std::vector<double> latency_ms, eval_ms, late_ms;
  std::size_t deadlined = 0, met = 0, failed = 0;
};

class SvcStream final : public Stage {
 public:
  const char* name() const override { return "svc-stream"; }

  void setup(std::uint64_t seed) override {
    journal_ = std::make_unique<std::ostringstream>();
    svc::ServiceOptions opt = base_options();
    opt.journal = journal_.get();
    opt.snapshot_sink = [this](const std::string& bytes) { latest_snapshot_ = bytes; };
    opt.latency_hook = [this](const svc::Request&, bool ok, double wall_ms) {
      hook_.push_back({ok, wall_ms});
    };
    service_ = std::make_unique<svc::Service>(opt);

    std::ostringstream boot;
    for (std::uint32_t s = 0; s < kTenants; ++s) {
      boot << R"({"op":"build","session":)" << s << R"(,"k":)" << kTenantK << "}\n";
      boot << R"({"op":"traffic","session":)" << s
           << R"(,"cluster":36,"pattern":"broadcast","placement":"none","seed":)"
           << seed * 31 + s << "}\n";
      boot << R"({"op":"convert","session":)" << s << R"(,"target":"global","advance":0})"
           << '\n';
    }
    setup_text_ = boot.str();
    {
      OBS_SPAN("svc.boot");
      std::istringstream in(setup_text_);
      service_->run(in, responses_);
    }
    generate(seed);
  }

  std::string inputs_text() const override {
    std::ostringstream os;
    os.precision(17);
    os << setup_text_;
    for (const Line& l : lines_) os << l.gap << ' ' << l.text << '\n';
    return os.str();
  }

  /// A short untimed burst: the first query of each session fills its
  /// warm engines.
  void warm_up() override { run_phase(kWarmUpLines, 1e9, false, warm_); }

  void unit() override {
    if (units_++ % 2 == 0) {
      run_phase(kPhaseLines, kNominalRps, true, nominal_);
    } else {
      burst_s_ += run_phase(kPhaseLines, 1e9, true, burst_);
    }
  }

  std::size_t min_units() const override { return 8; }

  void check(Outcome& out) override {
    // Every line answered ok (rejected and shed lines count as failed), and
    // every throughput answer certified.
    const std::string live = responses_.str();
    const std::string journal = journal_->str();
    out.attempted += service_->stats().lines;
    out.failed += service_->stats().rejected;
    const std::size_t unanswered = nominal_.failed + burst_.failed + warm_.failed;
    if (unanswered > service_->stats().rejected)
      out.fail("svc: " + std::to_string(unanswered) + " lines without an ok response");
    std::size_t certified_false = 0;
    for (std::size_t pos = live.find("\"certified\":false"); pos != std::string::npos;
         pos = live.find("\"certified\":false", pos + 1))
      ++certified_false;
    if (certified_false > 0)
      out.fail("svc: " + std::to_string(certified_false) + " uncertified throughput answers");

    // The journal replays to a byte-identical response stream.
    {
      OBS_SPAN("durable.replay");
      ++out.attempted;
      svc::Service replay(base_options());
      std::istringstream in(journal);
      std::ostringstream again;
      replay.run(in, again);
      if (again.str() != live) out.fail("svc: journal replay diverged from the live responses");
    }
    // recover() from the latest snapshot + journal matches the live state.
    ++out.attempted;
    svc::durable::JournalContents contents;
    svc::durable::JournalError jerr;
    if (!svc::durable::read_journal(journal, contents, jerr)) {
      out.fail("svc: journal failed validation: " + jerr.code);
      return;
    }
    svc::durable::ServiceSnapshot snap;
    const bool have_snapshot = !latest_snapshot_.empty();
    if (have_snapshot) {
      svc::durable::SnapshotError serr;
      if (!svc::durable::decode_snapshot(latest_snapshot_, snap, serr)) {
        out.fail("svc: snapshot failed validation: " + serr.code);
        return;
      }
    }
    svc::Service recovered(base_options());
    svc::RecoverStats rs;
    std::string err;
    const auto r0 = Clock::now();
    bool ok;
    {
      OBS_SPAN("durable.recover");
      ok = recovered.recover(have_snapshot ? &snap : nullptr, contents, rs, err);
    }
    recover_ms_ = ms_since(r0);
    if (!ok) out.fail("svc: recover failed: " + err);
    else if (svc::durable::encode_snapshot(recovered.snapshot_state()) !=
             svc::durable::encode_snapshot(service_->snapshot_state()))
      out.fail("svc: recovered state differs from the live snapshot");
    journal_bytes_ = journal.size();
  }

  /// svc.p50_ms and svc.max_rps are printed here but reported as per-layer
  /// metrics: every parallel batch waits for all pool workers to wake, and
  /// on a contended VM host that wait swings them by more than any bound
  /// the benchmark may set.
  void report_e2e(Metrics& m) const override {
    const Tail latency_tail = tail(nominal_.latency_ms);
    m.set("svc.p99_ms", latency_tail.value, "ms");
    m.set("svc.slo_hit",
          nominal_.deadlined > 0
              ? static_cast<double>(nominal_.met) / static_cast<double>(nominal_.deadlined)
              : 0.0,
          "ratio");
    std::printf("  svc-stream: nominal %.0f/s over %zu requests: svc.p50_ms %.3f, "
                "p%.1f %.3f ms (%zu samples), slo %zu/%zu\n",
                kNominalRps, nominal_.latency_ms.size(), median(nominal_.latency_ms),
                latency_tail.pct, latency_tail.value, latency_tail.n, nominal_.met,
                nominal_.deadlined);
    std::printf("  svc-stream: svc.max_rps %.1f 1/s (%zu requests in bursts drained in %.3f s)\n",
                max_rps(), burst_.latency_ms.size(), burst_s_);
  }

  void report_layers(Metrics& m) const override {
    const svc::ServiceStats& st = service_->stats();
    std::vector<double> wait;
    for (std::size_t i = 0; i < nominal_.latency_ms.size(); ++i)
      wait.push_back(std::max(0.0, nominal_.latency_ms[i] - nominal_.eval_ms[i]));
    m.set("svc.p50_ms", median(nominal_.latency_ms), "ms");
    m.set("svc.max_rps", max_rps(), "1/s");
    m.set("svc.eval_ms.p50", median(nominal_.eval_ms), "ms");
    m.set("svc.eval_ms.tail", tail(nominal_.eval_ms).value, "ms");
    m.set("svc.wait_ms.p50", median(wait), "ms");
    m.set("svc.wait_ms.tail", tail(wait).value, "ms");
    std::uint64_t reads = 0;
    for (svc::Op op : {svc::Op::Hello, svc::Op::Query, svc::Op::WhatIf, svc::Op::Design})
      reads += st.accepted_by_op[static_cast<int>(op)];
    m.set("svc.batch_size", st.batches > 0 ? static_cast<double>(reads) / st.batches : 0.0,
          "count");
    m.set("svc.truncated_frac",
          st.solves > 0 ? static_cast<double>(st.truncated_solves) / st.solves : 0.0, "ratio");
    m.set("svc.parse_ms", parse_ms_per_line(), "ms");
    m.set("durable.journal_bytes_per_req",
          st.lines > 0 ? static_cast<double>(journal_bytes_) / st.lines : 0.0, "B");
    m.set("durable.recover_ms", recover_ms_, "ms");
    m.set("gen.late_ms.tail", tail(nominal_.late_ms).value, "ms");
  }

 private:
  static svc::ServiceOptions base_options() {
    svc::ServiceOptions opt;  // flattree_svc defaults
    opt.max_batch = 8;
    opt.epsilon = 0.12;
    opt.snapshot_every = 32;
    opt.incremental = true;
    return opt;
  }

  void generate(std::uint64_t seed) {
    core::FlatTreeNetwork net{core::FlatTreeConfig{kTenantK}};
    const topo::Topology clos = net.build(core::Mode::Clos);
    std::vector<std::vector<fault::FaultEvent>> events(kTenants);
    std::vector<std::size_t> cursor(kTenants, 0);
    for (std::uint32_t s = 0; s < kTenants; ++s) {
      fault::ScenarioParams sp;  // bench_service's rates over a long horizon
      sp.duration = 3000.0;
      sp.seed = util::mix64(seed * 131 + s);
      sp.switches = {250.0, 4.0};
      sp.link = {600.0, 3.0};
      sp.converter = {500.0, 6.0};
      OBS_SPAN("fault.generate_scenario");
      events[s] = fault::generate_scenario(clos, sp, net.converters().size(),
                                           net.params().pods())
                      .events;
    }
    // Every block of eight lines holds the exact op mix and only its order
    // is drawn, so the share of writes, which close read batches, does not
    // vary with the seed.
    enum class Kind { Query, WhatIf, Fault, Convert };
    const std::vector<Kind> mix{Kind::Query,  Kind::Query,  Kind::Query, Kind::Query,
                                Kind::WhatIf, Kind::WhatIf, Kind::Fault, Kind::Convert};
    std::vector<Kind> block;
    util::Rng rng = util::Rng::substream(seed, 9000);
    lines_.clear();
    lines_.reserve(kTemplateLines);
    for (std::size_t i = 0; i < kTemplateLines; ++i) {
      if (i % mix.size() == 0) {
        block = mix;
        rng.shuffle(block);
      }
      const Kind kind = block[i % mix.size()];
      Line l;
      l.gap = rng.exponential(1.0);
      const std::uint32_t s = static_cast<std::uint32_t>(rng.index(kTenants));
      std::ostringstream os;
      os << R"({"op":")";
      auto tier = [&] {
        l.deadline_ms = kDeadlineTiers[rng.index(4)];
        if (l.deadline_ms > 0.0) os << R"(,"deadline_ms":)" << obs::json_number(l.deadline_ms);
      };
      if (kind == Kind::Query) {
        os << R"(query","session":)" << s;
        tier();
      } else if (kind == Kind::WhatIf) {
        static const char* targets[] = {"local", "clos", "global"};
        os << R"(what_if","session":)" << s << R"(,"target":")" << targets[rng.index(3)] << '"';
        tier();
      } else if (kind == Kind::Fault && cursor[s] + 2 <= events[s].size()) {
        os << R"(fault","session":)" << s << R"(,"events":[)";
        for (int e = 0; e < 2; ++e) {
          const fault::FaultEvent& ev = events[s][cursor[s]++];
          if (e > 0) os << ',';
          os << R"({"t":)" << obs::json_number(ev.time) << R"(,"kind":")"
             << fault::to_string(ev.kind) << R"(","a":)" << ev.a;
          if (ev.kind == fault::FaultKind::LinkDown || ev.kind == fault::FaultKind::LinkUp)
            os << R"(,"b":)" << ev.b;
          os << '}';
        }
        os << R"(],"advance":1)";
      } else {
        os << R"(convert","session":)" << s << R"(,"advance":2)";
      }
      os << '}';
      l.text = os.str();
      lines_.push_back(std::move(l));
    }
    next_line_ = 0;
  }

  /// Offers the next `count` template lines at `rate` per second, plus
  /// (when `design`) the fixed design request due with the middle one, and
  /// adds their samples to `r`. Returns the seconds until the last response.
  double run_phase(std::size_t count, double rate, bool design, Samples& r) {
    count = std::min(count, lines_.size() - next_line_);
    if (count == 0) return 0.0;  // template exhausted
    std::vector<std::string> text(count);
    std::vector<double> due(count), deadline(count);
    double t = 0.02;  // lead time before the first arrival
    for (std::size_t i = 0; i < count; ++i) {
      const Line& l = lines_[next_line_ + i];
      t += l.gap / rate;
      due[i] = t;
      text[i] = l.text;
      deadline[i] = l.deadline_ms;
    }
    next_line_ += count;
    if (design) {
      const auto mid = static_cast<std::ptrdiff_t>(count / 2);
      const double mid_due = due[count / 2];
      text.insert(text.begin() + mid,
                  R"({"op":"design","session":0,"iters":4,"seed":1,"deadline_ms":250,)"
                  R"("mix":[{"kind":"broadcast","cluster":36,"count":1}]})");
      due.insert(due.begin() + mid, mid_due);
      deadline.insert(deadline.begin() + mid, 250.0);
      ++count;
    }
    hook_.clear();
    const auto t0 = Clock::now();
    ScheduledInput src(text, due, t0);
    ResponseClock sink;
    {
      std::istream in(&src);
      std::ostream out(&sink);
      OBS_SPAN("svc.stream");
      service_->run(in, out);
    }
    responses_ << sink.text;
    const std::size_t n = std::min(sink.stamps.size(), count);
    double last_ms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double lat =
          std::chrono::duration<double, std::milli>(sink.stamps[i] - t0).count() - 1e3 * due[i];
      last_ms = std::max(last_ms, lat + 1e3 * due[i]);
      r.latency_ms.push_back(lat);
      const bool ok = i < hook_.size() && hook_[i].ok;
      r.eval_ms.push_back(i < hook_.size() ? hook_[i].wall_ms : 0.0);
      if (!ok) ++r.failed;
      if (deadline[i] > 0.0) {
        ++r.deadlined;
        if (ok && lat <= deadline[i]) ++r.met;
      }
    }
    r.failed += count - n;
    r.late_ms.insert(r.late_ms.end(), src.late_ms.begin(), src.late_ms.end());
    return 1e-3 * last_ms - due[0];
  }

  /// Burst lines over the bursts' summed drain time.
  double max_rps() const {
    return burst_s_ > 0.0 ? static_cast<double>(burst_.latency_ms.size()) / burst_s_ : 0.0;
  }

  double parse_ms_per_line() const {
    const std::size_t n = std::min<std::size_t>(lines_.size(), 2000);
    const auto t0 = Clock::now();
    std::size_t ok = 0;
    {
      OBS_SPAN("svc.parse_request");
      for (std::size_t i = 0; i < n; ++i) {
        svc::Request req;
        svc::RequestError err;
        ok += svc::parse_request(lines_[i].text, i + 1, req, err) ? 1 : 0;
      }
    }
    return ok > 0 ? ms_since(t0) / static_cast<double>(n) : 0.0;
  }

  struct HookSample {
    bool ok = false;
    double wall_ms = 0.0;
  };

  std::unique_ptr<std::ostringstream> journal_;
  std::string latest_snapshot_;
  std::unique_ptr<svc::Service> service_;
  std::ostringstream responses_;
  std::vector<HookSample> hook_;
  std::string setup_text_;
  std::vector<Line> lines_;
  std::size_t next_line_ = 0;
  std::size_t units_ = 0;
  Samples warm_, nominal_, burst_;
  double burst_s_ = 0.0;  ///< summed drain time of the bursts
  double recover_ms_ = 0.0;
  std::size_t journal_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Stage> make_svc_stream() { return std::make_unique<SvcStream>(); }

}  // namespace perfbench
