// Fault injection on the ingest read path (ISSUE 10): seeded FaultPlan
// EINTR / short-read / transient-EIO / hard-EIO schedules over a multi-file
// synthetic corpus. The contract under test: ingest reads never abort the
// process — transient faults are absorbed by bounded retries (counted in
// io_retries_total), hard faults surface as a structured PipelineReport
// error with partial run files cleaned up, and on every success path the
// emitted segment is bit-identical across prefetch depths and backends.

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/hetindex.hpp"
#include "io/async_reader.hpp"
#include "io/env.hpp"
#include "parse/read_scheduler.hpp"
#include "util/binary_io.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_ingest_faults_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

class IngestFaultsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = std::make_unique<TempDir>("corpus");
    auto spec = wikipedia_like();
    spec.total_bytes = 1u << 20;   // 8 container files
    spec.file_bytes = 128u << 10;
    spec.vocabulary = 4000;
    spec.seed = 0x9E1D;
    collection_ = generate_collection(spec, corpus_->path());
    ASSERT_GE(collection_.files.size(), 4u);
  }

  /// One pipeline build against the current Env. The config pins everything
  /// except the read path so output bytes depend only on the input corpus.
  PipelineReport run_build(const std::string& out_dir, std::size_t depth,
                           io::ReadBackend backend = io::ReadBackend::kAuto) {
    PipelineConfig config;
    config.parsers = 2;
    config.cpu_indexers = 1;
    config.gpus = 1;
    config.emit_segment = true;
    config.read_prefetch_depth = depth;
    config.read_backend = backend;
    config.output_dir = out_dir;
    PipelineEngine engine(config);
    return engine.build(collection_.paths());
  }

  static std::uint64_t retries_total() {
    return io::io_metrics().counter("io_retries_total").value();
  }

  std::unique_ptr<TempDir> corpus_;
  Collection collection_;
};

TEST_F(IngestFaultsFixture, EintrIsAbsorbedAndCounted) {
  io::FaultPlan plan;
  plan.pread_eintr_every = 3;  // every 3rd pread -> EINTR
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  const auto before = retries_total();
  TempDir out("eintr");
  const auto report = run_build(out.path(), /*depth=*/4);
  EXPECT_TRUE(report.ok()) << report.error->to_string();
  EXPECT_EQ(report.documents, collection_.total_docs());
  EXPECT_GT(retries_total(), before);
  // With an override installed, the readahead path must stay on the
  // Env-routed pool — otherwise the injection above could not have fired.
  EXPECT_EQ(report.read_backend, "thread_pool");
}

TEST_F(IngestFaultsFixture, ShortPreadsConverge) {
  io::FaultPlan plan;
  plan.short_pread_bytes = 1000;  // every pread clamped to 1000 bytes
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  TempDir out("short");
  const auto report = run_build(out.path(), /*depth=*/4);
  EXPECT_TRUE(report.ok()) << report.error->to_string();
  EXPECT_EQ(report.documents, collection_.total_docs());
}

TEST_F(IngestFaultsFixture, TransientEioBurstIsRetried) {
  io::FaultPlan plan;
  plan.pread_eio_at = 2;    // a 2-call EIO burst, well inside the retry budget
  plan.pread_eio_count = 2;
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  const auto before = retries_total();
  TempDir out("eio_transient");
  const auto report = run_build(out.path(), /*depth=*/4);
  EXPECT_TRUE(report.ok()) << report.error->to_string();
  EXPECT_EQ(report.documents, collection_.total_docs());
  EXPECT_GE(retries_total(), before + 2);
}

TEST_F(IngestFaultsFixture, HardEioFailsStructurallyAndCleansUp) {
  io::FaultPlan plan;
  plan.pread_eio_at = 4;      // files 0..2 ingest fine, then a persistent EIO
  plan.pread_eio_count = 64;  // far past the retry budget
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  TempDir out("eio_hard");
  const auto report = run_build(out.path(), /*depth=*/4);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error->code, ErrorCode::kIo);
  EXPECT_NE(report.error->message.find("ingest read failed"), std::string::npos)
      << report.error->message;
  // Already-flushed partial runs must be cleaned up and the finalize
  // artifacts never written — the directory holds no stray index state.
  for (const auto& entry : std::filesystem::directory_iterator(out.path())) {
    const auto name = entry.path().filename().string();
    EXPECT_TRUE(name.find(".post") == std::string::npos &&
                name.find(".seg") == std::string::npos &&
                name.find("dict") == std::string::npos)
        << "stray artifact after failed build: " << name;
  }
}

/// 1-based position of `path`'s first `kind` op in a clean build's trace —
/// the FaultPlan counter value that hits exactly that operation.
std::uint64_t op_index(const std::vector<io::WriteOp>& trace, io::WriteOp::Kind kind,
                       const std::string& path) {
  std::uint64_t n = 0;
  for (const auto& op : trace) {
    if (op.kind != kind) continue;
    ++n;
    if (op.path == path) return n;
  }
  return 0;
}

TEST_F(IngestFaultsFixture, SegmentFoldWriteErrorFailsStructurallyAndCleansUp) {
  // A clean traced build locates the fold's writes: the torn segment write
  // and the failed fsync of the last sidecar (.blm) bracket the fold's
  // whole durable tail.
  TempDir probe_out("fold_probe");
  io::FaultEnv probe;
  {
    io::ScopedEnv scoped(probe);
    ASSERT_TRUE(run_build(probe_out.path(), /*depth=*/4).ok());
  }
  const auto trace = probe.trace();
  const std::string seg = IndexLayout::segment_path(probe_out.path());
  struct Case {
    const char* name;
    io::FaultPlan plan;
  };
  std::vector<Case> cases(2);
  cases[0].name = "segment write";
  cases[0].plan.fail_write_at = op_index(trace, io::WriteOp::Kind::kWriteFile, seg);
  cases[1].name = ".blm fsync";
  cases[1].plan.fail_sync_at =
      op_index(trace, io::WriteOp::Kind::kSyncFile, bloom_sidecar_path(seg));
  ASSERT_NE(cases[0].plan.fail_write_at, 0u);
  ASSERT_NE(cases[1].plan.fail_sync_at, 0u);

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    io::FaultEnv fault(c.plan);
    io::ScopedEnv scoped(fault);
    TempDir out("fold_fault");
    const auto report = run_build(out.path(), /*depth=*/4);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error->code, ErrorCode::kIo);
    // The void build leaves nothing behind: no segment or sidecar, and the
    // runs, dictionary, run directory, merged run and doc map it was
    // folded from are gone too.
    for (const auto& entry : std::filesystem::directory_iterator(out.path())) {
      ADD_FAILURE() << "stray artifact after failed fold: " << entry.path().filename();
    }
  }
}

TEST_F(IngestFaultsFixture, SerialDepthOneAlsoFailsStructurally) {
  io::FaultPlan plan;
  plan.pread_eio_at = 1;
  plan.pread_eio_count = 64;
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  TempDir out("eio_serial");
  const auto report = run_build(out.path(), /*depth=*/1);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error->code, ErrorCode::kIo);
  EXPECT_EQ(report.read_backend, "serial");
}

TEST_F(IngestFaultsFixture, SchedulerErrorIsSticky) {
  io::FaultPlan plan;
  plan.pread_eio_at = 1;
  plan.pread_eio_count = 64;
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  ReadSchedulerOptions opt;
  opt.prefetch_depth = 4;
  ReadScheduler sched(collection_.paths(), opt);
  auto first = sched.next();
  ASSERT_FALSE(first.has_value());
  EXPECT_EQ(first.error().code, ErrorCode::kIo);
  // Every later call drains with the same structured error — no abort, no
  // hang, no file handed out past the failure.
  auto second = sched.next();
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, first.error().code);
  EXPECT_EQ(second.error().message, first.error().message);
}

TEST_F(IngestFaultsFixture, SegmentBitIdenticalAcrossDepthsAndBackends) {
  // Depth 1 (the paper's serialized discipline) is the reference.
  TempDir serial("serial");
  const auto serial_report = run_build(serial.path(), /*depth=*/1);
  ASSERT_TRUE(serial_report.ok());
  const auto reference = read_file(IndexLayout::segment_path(serial.path()));
  ASSERT_FALSE(reference.empty());

  // Prefetch depth 4, Env-routed pool.
  TempDir pool("pool");
  const auto pool_report =
      run_build(pool.path(), /*depth=*/4, io::ReadBackend::kThreadPool);
  ASSERT_TRUE(pool_report.ok());
  EXPECT_EQ(pool_report.read_backend, "thread_pool");
  EXPECT_EQ(read_file(IndexLayout::segment_path(pool.path())), reference);

  // Prefetch depth 4, auto resolution — io_uring when this build and
  // kernel support it, the pool otherwise; output must not care.
  TempDir autod("auto");
  const auto auto_report = run_build(autod.path(), /*depth=*/4, io::ReadBackend::kAuto);
  ASSERT_TRUE(auto_report.ok());
  if (io::io_uring_available()) {
    EXPECT_EQ(auto_report.read_backend, "io_uring");
  }
  EXPECT_EQ(read_file(IndexLayout::segment_path(autod.path())), reference);
}

}  // namespace
}  // namespace hetindex
