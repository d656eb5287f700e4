#include "postings/merger.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "postings/run_file.hpp"
#include "util/check.hpp"

namespace hetindex {

MergeStats merge_runs(const std::vector<std::string>& run_paths, const std::string& out_path,
                      PostingCodec codec) {
  MergeStats stats;
  std::vector<RunFile> runs;
  runs.reserve(run_paths.size());
  for (const auto& p : run_paths) runs.push_back(RunFile::open(p));
  std::sort(runs.begin(), runs.end(),
            [](const RunFile& a, const RunFile& b) { return a.run_id() < b.run_id(); });

  // Byte-level merge (the reason §III.F's pass costs <10%): every encoded
  // segment's first doc id is absolute, so partial lists concatenate
  // verbatim — no decode/re-encode. One pass over the runs' tables (runs
  // are processed in ascending run order, so segments land in global doc
  // order); table metadata folds from the runs' tables and cross-run doc
  // order is checked from min/max alone.
  for (const auto& run : runs) {
    HET_CHECK_MSG(run.codec() == codec, "merge requires a uniform posting codec");
  }
  struct Accum {
    std::vector<std::uint8_t> blob;
    std::uint32_t count = 0;
    std::uint32_t min_doc = 0;
    std::uint32_t max_doc = 0;
  };
  std::unordered_map<std::uint64_t, Accum> accum;
  auto pack = [](PostingKey k) {
    return (static_cast<std::uint64_t>(k.shard) << 32) | k.handle;
  };
  for (const auto& run : runs) {
    for (const auto& e : run.table()) {
      stats.input_bytes += e.bytes;
      auto [it, inserted] = accum.try_emplace(pack(e.key));
      Accum& a = it->second;
      HET_CHECK_MSG(inserted || e.min_doc > a.max_doc,
                    "doc ids must be globally increasing across runs");
      const auto [blob, bytes] = run.raw_blob(e);
      a.blob.insert(a.blob.end(), blob, blob + bytes);
      a.count += e.count;
      if (inserted) a.min_doc = e.min_doc;
      a.max_doc = e.max_doc;
    }
  }
  // Deterministic output order.
  std::vector<std::uint64_t> ordered;
  ordered.reserve(accum.size());
  for (const auto& [k, a] : accum) ordered.push_back(k);
  std::sort(ordered.begin(), ordered.end());

  RunFileWriter writer(out_path, kMergedRunId, codec);
  for (const auto packed : ordered) {
    const Accum& a = accum.at(packed);
    stats.postings += a.count;
    ++stats.terms;
    writer.add_raw({static_cast<std::uint32_t>(packed >> 32),
                    static_cast<std::uint32_t>(packed & 0xFFFFFFFFu)},
                   a.blob, a.count, a.min_doc, a.max_doc);
  }
  stats.output_bytes = writer.finalize();
  return stats;
}

}  // namespace hetindex
