// CSV export/import of per-segment session results. The round trip is
// lossless for the columns listed in the header row, so imported results
// compare bit-identically to the session that produced them.
#include "sim/export.h"

#include "util/check.h"
#include "util/csv.h"

namespace ps360::sim {

void export_segments_csv(const std::filesystem::path& path,
                         const SessionResult& result) {
  PS360_CHECK_MSG(!path.empty(), "export path must be non-empty");
  util::CsvTable table;
  table.header = {"segment",   "quality",     "frame_index", "fps",
                  "bytes",     "download_s",  "stall_s",     "buffer_before_s",
                  "coverage",  "used_ptile",  "qo",          "variation",
                  "rebuffer",  "q",           "transmit_mj", "decode_mj",
                  "render_mj"};
  table.rows.reserve(result.segments.size());
  for (const auto& seg : result.segments) {
    table.rows.push_back({static_cast<double>(seg.index),
                          static_cast<double>(seg.quality),
                          static_cast<double>(seg.frame_index), seg.fps, seg.bytes,
                          seg.download_s, seg.stall_s, seg.buffer_before_s,
                          seg.coverage, seg.used_ptile ? 1.0 : 0.0, seg.qoe.qo,
                          seg.qoe.variation, seg.qoe.rebuffer, seg.qoe.q,
                          seg.energy.transmit_mj, seg.energy.decode_mj,
                          seg.energy.render_mj});
  }
  util::write_csv_file(path, table);
}

SessionResult import_segments_csv(const std::filesystem::path& path) {
  PS360_CHECK_MSG(!path.empty(), "import path must be non-empty");
  const util::CsvTable table = util::read_csv_file(path, /*has_header=*/true);
  SessionResult result;
  auto col = [&table](const char* name) { return table.column(name); };
  const std::size_t c_index = col("segment"), c_quality = col("quality"),
                    c_frame = col("frame_index"), c_fps = col("fps"),
                    c_bytes = col("bytes"), c_dl = col("download_s"),
                    c_stall = col("stall_s"), c_buf = col("buffer_before_s"),
                    c_cov = col("coverage"), c_ptile = col("used_ptile"),
                    c_qo = col("qo"), c_var = col("variation"),
                    c_reb = col("rebuffer"), c_q = col("q"),
                    c_et = col("transmit_mj"), c_ed = col("decode_mj"),
                    c_er = col("render_mj");
  for (const auto& row : table.rows) {
    SegmentRecord seg;
    seg.index = static_cast<std::size_t>(row[c_index]);
    seg.quality = static_cast<int>(row[c_quality]);
    seg.frame_index = static_cast<std::size_t>(row[c_frame]);
    seg.fps = row[c_fps];
    seg.bytes = row[c_bytes];
    seg.download_s = row[c_dl];
    seg.stall_s = row[c_stall];
    seg.buffer_before_s = row[c_buf];
    seg.coverage = row[c_cov];
    seg.used_ptile = row[c_ptile] != 0.0;
    seg.qoe.qo = row[c_qo];
    seg.qoe.variation = row[c_var];
    seg.qoe.rebuffer = row[c_reb];
    seg.qoe.q = row[c_q];
    seg.energy.transmit_mj = row[c_et];
    seg.energy.decode_mj = row[c_ed];
    seg.energy.render_mj = row[c_er];
    result.segments.push_back(std::move(seg));
  }
  aggregate_segments(result);
  return result;
}

}  // namespace ps360::sim
