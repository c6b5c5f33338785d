#include "graph/file_graph.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace rumor {

namespace {

// Cache layout, version 2 (all integers little-endian, arrays uint32):
//   FileHeader (64 bytes)
//   offsets      (n + 1)   CSR row starts
//   neighbors    (2m)      sorted per vertex
//   fwd_offsets  (n + 1)   # edges whose min endpoint < u (edge_endpoints)
// The three arrays are an owned Graph's CsrView, written verbatim.
// Bump kCacheVersion whenever this layout changes; a version mismatch is
// treated exactly like a stale cache.
constexpr char kMagic[8] = {'R', 'U', 'M', 'R', 'C', 'S', 'R', '1'};
constexpr std::uint32_t kCacheVersion = 2;

// The edge-count ceiling parse_edge_list enforces, the same one the owned
// and mapped Graph backends REQUIRE.
constexpr std::uint64_t kMaxEdges = std::numeric_limits<EdgeId>::max() / 2;

constexpr std::uint32_t kFlagConnected = 1u << 0;
constexpr std::uint32_t kFlagBipartite = 1u << 1;
constexpr std::uint32_t kFlagPow2 = 1u << 2;

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;
  std::uint64_t source_size;
  std::int64_t source_mtime_ns;
  std::uint32_t n;
  std::uint32_t min_degree;
  std::uint32_t max_degree;
  std::uint32_t reserved0;
  std::uint64_t m;
  std::uint64_t reserved1;
};
static_assert(sizeof(FileHeader) == 64);

std::uint64_t cache_payload_bytes(std::uint64_t n, std::uint64_t m) {
  return sizeof(FileHeader) + 4 * (2 * (n + 1) + 2 * m);
}

[[noreturn]] void fail(const std::string& what) { throw GraphFileError(what); }

struct SourceStamp {
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;
};

SourceStamp stat_source(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    fail(path + ": " + std::strerror(errno));
  }
  if (!S_ISREG(st.st_mode)) fail(path + ": not a regular file");
  return {static_cast<std::uint64_t>(st.st_size),
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec};
}

// Owns one read-only mapping; Graph pins it via shared_ptr keep-alive.
class MappedFile {
 public:
  MappedFile(void* base, std::size_t len) : base_(base), len_(len) {}
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (base_ != nullptr) ::munmap(base_, len_);
  }
  [[nodiscard]] const std::byte* data() const {
    return static_cast<const std::byte*>(base_);
  }

 private:
  void* base_;
  std::size_t len_;
};

// ---- SNAP-style edge-list parser --------------------------------------

struct ParsedEdgeList {
  Vertex n = 0;
  std::vector<std::pair<Vertex, Vertex>> edges;  // deduped, u < v
};

ParsedEdgeList parse_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path + ": cannot open for reading");

  std::vector<std::pair<std::uint64_t, std::uint64_t>> raw;
  std::string line;
  std::size_t line_no = 0;
  const auto line_fail = [&](const std::string& msg) {
    fail(path + ":" + std::to_string(line_no) + ": " + msg);
  };
  while (std::getline(in, line)) {
    ++line_no;
    // Trailing comments count too: "0 1  # seed edge" is a data line.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    const char* s = line.c_str();
    const char* end = s + line.size();
    const auto skip_ws = [&] {
      while (s < end && (*s == ' ' || *s == '\t' || *s == '\r')) ++s;
    };
    const auto parse_id = [&](std::uint64_t& out) {
      if (s >= end || *s < '0' || *s > '9') {
        line_fail("expected a vertex id");
      }
      std::uint64_t v = 0;
      while (s < end && *s >= '0' && *s <= '9') {
        const std::uint64_t digit = static_cast<std::uint64_t>(*s - '0');
        if (v > (~std::uint64_t{0} - digit) / 10) {
          line_fail("vertex id out of range");
        }
        v = v * 10 + digit;
        ++s;
      }
      out = v;
    };
    skip_ws();
    if (s == end) continue;  // blank (or comment-only) line
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    parse_id(u);
    skip_ws();
    parse_id(v);
    skip_ws();
    if (s != end) line_fail("trailing characters after edge");
    if (u == v) {
      line_fail("self loop (" + std::to_string(u) + ")");
    }
    raw.emplace_back(u, v);
  }
  if (in.bad()) fail(path + ": read error");
  if (raw.empty()) fail(path + ": no edges found");

  // Compact arbitrary ids to dense [0, n), ascending original-id order.
  std::vector<std::uint64_t> ids;
  ids.reserve(2 * raw.size());
  for (const auto& [u, v] : raw) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.size() > std::numeric_limits<Vertex>::max()) {
    fail(path + ": too many distinct vertices for 32-bit ids");
  }
  const auto remap = [&](std::uint64_t id) {
    return static_cast<Vertex>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };

  ParsedEdgeList out;
  out.n = static_cast<Vertex>(ids.size());
  out.edges.reserve(raw.size());
  for (const auto& [u, v] : raw) {
    const Vertex a = remap(u);
    const Vertex b = remap(v);
    out.edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  // Dedupe duplicate and reversed edges: normalized pairs, sort + unique.
  std::sort(out.edges.begin(), out.edges.end());
  out.edges.erase(std::unique(out.edges.begin(), out.edges.end()),
                  out.edges.end());
  if (out.edges.size() >= kMaxEdges) {
    fail(path + ": too many edges for 32-bit edge ids");
  }
  return out;
}

// ---- Cache writer ------------------------------------------------------

void write_u32s(std::FILE* f, const std::uint32_t* p, std::uint64_t count,
                const std::string& path) {
  if (count != 0 && std::fwrite(p, sizeof(std::uint32_t), count, f) != count) {
    fail(path + ": short write");
  }
}

void build_cache(const std::string& path, const std::string& cache_path,
                 const SourceStamp& stamp) {
  const ParsedEdgeList parsed = parse_edge_list(path);
  const Graph g(parsed.n, parsed.edges);
  const GraphProperties& props = g.properties();  // one BFS, stored forever

  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kCacheVersion;
  h.flags = (props.connected ? kFlagConnected : 0) |
            (props.bipartite ? kFlagBipartite : 0) |
            (g.degrees_all_pow2() ? kFlagPow2 : 0);
  h.source_size = stamp.size;
  h.source_mtime_ns = stamp.mtime_ns;
  h.n = g.num_vertices();
  h.min_degree = g.min_degree();
  h.max_degree = g.max_degree();
  h.m = g.num_edges();

  // Write to a temp name, rename into place: a crashed or concurrent build
  // never leaves a torn cache behind (rename on one filesystem is atomic).
  const std::string tmp = cache_path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail(tmp + ": cannot open cache for writing");
  const CsrView csr = g.csr();
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
  if (!ok) {
    std::fclose(f);
    std::remove(tmp.c_str());
    fail(tmp + ": short write");
  }
  write_u32s(f, csr.offsets, n + 1, tmp);
  write_u32s(f, csr.neighbors, 2 * m, tmp);
  write_u32s(f, csr.fwd_offsets, n + 1, tmp);
  ok = std::fflush(f) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp.c_str(), cache_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(cache_path + ": cannot finalize cache");
  }
}

// True iff the header describes a graph parse_edge_list can produce: at
// least one edge and under the ceiling, every vertex an endpoint of some
// edge (so 2 <= n <= 2m), and a simple graph's degree range.
bool header_shape_valid(const FileHeader& h) {
  return h.m >= 1 && h.m < kMaxEdges && h.n >= 2 && h.n <= 2 * h.m &&
         h.min_degree >= 1 && h.min_degree <= h.max_degree &&
         h.max_degree < h.n;
}

bool read_u32_at(std::FILE* f, std::uint64_t pos, std::uint32_t& out) {
  return ::fseeko(f, static_cast<off_t>(pos), SEEK_SET) == 0 &&
         std::fread(&out, sizeof(out), 1, f) == 1;
}

// Reads + validates an existing cache against the source stamp. Returns
// false when it is missing, stale, foreign or corrupt (caller rebuilds).
// Besides the stamp it checks what every cache build_cache writes
// satisfies: a header shape a parsed edge list can produce, the exact
// file size that shape implies, and the array sentinels offsets[0] == 0,
// offsets[n] == 2m and fwd_offsets[n] == m. The rest of the payload is
// trusted.
bool read_cache_header(const std::string& cache_path,
                       const SourceStamp& stamp, FileHeader& h,
                       std::uint64_t& file_size) {
  struct stat st {};
  if (::stat(cache_path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
    return false;
  }
  std::FILE* f = std::fopen(cache_path.c_str(), "rb");
  if (f == nullptr) return false;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  std::uint32_t first_row = 1;
  std::uint32_t rows_end = 0;
  std::uint32_t fwd_end = 0;
  // The shape check bounds n and m first, so the size cannot wrap; the
  // file ends with fwd_offsets[n].
  const bool ok =
      std::fread(&h, sizeof(h), 1, f) == 1 &&
      std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0 &&
      h.version == kCacheVersion && h.source_size == stamp.size &&
      h.source_mtime_ns == stamp.mtime_ns && header_shape_valid(h) &&
      size == cache_payload_bytes(h.n, h.m) &&
      read_u32_at(f, sizeof(FileHeader), first_row) && first_row == 0 &&
      read_u32_at(f, sizeof(FileHeader) + 4 * std::uint64_t{h.n}, rows_end) &&
      rows_end == 2 * h.m && read_u32_at(f, size - 4, fwd_end) &&
      fwd_end == h.m;
  std::fclose(f);
  if (ok) file_size = size;
  return ok;
}

// Ensures a valid cache exists; returns its header + size.
FileHeader ensure_cache(const std::string& path, const std::string& cache_path,
                        std::uint64_t& cache_bytes, bool& was_fresh) {
  const SourceStamp stamp = stat_source(path);
  FileHeader h{};
  if (read_cache_header(cache_path, stamp, h, cache_bytes)) {
    was_fresh = true;
    return h;
  }
  build_cache(path, cache_path, stamp);
  if (!read_cache_header(cache_path, stamp, h, cache_bytes)) {
    fail(cache_path + ": cache verification failed after build");
  }
  was_fresh = false;
  return h;
}

}  // namespace

std::string file_graph_cache_path(const std::string& path) {
  return path + ".rcsr";
}

Graph load_file_graph(const std::string& path) {
  const std::string cache_path = file_graph_cache_path(path);
  std::uint64_t cache_bytes = 0;
  bool was_fresh = false;
  const FileHeader h = ensure_cache(path, cache_path, cache_bytes, was_fresh);

  const int fd = ::open(cache_path.c_str(), O_RDONLY);
  if (fd < 0) fail(cache_path + ": " + std::strerror(errno));
  void* base = ::mmap(nullptr, cache_bytes, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    fail(cache_path + ": mmap: " + std::strerror(errno));
  }
  auto mapping = std::make_shared<MappedFile>(base, cache_bytes);

  const std::byte* p = mapping->data() + sizeof(FileHeader);
  const std::uint64_t n = h.n;
  const std::uint64_t m = h.m;
  ExternalCsr ext;
  ext.offsets = reinterpret_cast<const std::uint32_t*>(p);
  p += 4 * (n + 1);
  ext.neighbors = reinterpret_cast<const Vertex*>(p);
  p += 4 * (2 * m);
  ext.fwd_offsets = reinterpret_cast<const std::uint32_t*>(p);
  ext.n = h.n;
  ext.m = h.m;
  ext.min_degree = h.min_degree;
  ext.max_degree = h.max_degree;
  ext.degrees_all_pow2 = (h.flags & kFlagPow2) != 0;
  ext.props.connected = (h.flags & kFlagConnected) != 0;
  ext.props.bipartite = (h.flags & kFlagBipartite) != 0;
  ext.props.regular = h.min_degree == h.max_degree;
  ext.props.degrees_all_pow2 = ext.degrees_all_pow2;
  ext.keep_alive = std::move(mapping);
  return Graph::from_external(std::move(ext));
}

FileGraphInfo probe_file_graph(const std::string& path) {
  FileGraphInfo info;
  const FileHeader h = ensure_cache(path, file_graph_cache_path(path),
                                    info.cache_bytes, info.cache_was_fresh);
  info.n = h.n;
  info.m = h.m;
  return info;
}

}  // namespace rumor
