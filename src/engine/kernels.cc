#include "engine/kernels.h"

#include <algorithm>

#include "common/hash.h"

namespace prost::engine::kernels {

using columnar::IdListColumn;
using columnar::IdVector;
using rdf::TermId;

void HashColumns(const RelationChunk& chunk, const std::vector<int>& key_cols,
                 size_t begin, size_t end, uint64_t* out) {
  const size_t n = end - begin;
  std::fill(out, out + n, kKeyHashSeed);
  for (int c : key_cols) {
    const TermId* column =
        chunk.columns[static_cast<size_t>(c)].data() + begin;
    for (size_t i = 0; i < n; ++i) {
      out[i] = HashCombine(out[i], column[i]);
    }
  }
}

void HashColumns(const RelationChunk& chunk, const std::vector<int>& key_cols,
                 size_t begin, size_t end, std::vector<uint64_t>& out) {
  out.resize(end - begin);
  HashColumns(chunk, key_cols, begin, end, out.data());
}

namespace {

/// CountKeyMatches, and SelectKeyMatches when `out` is non-null.
size_t MatchRuns(const RelationChunk& build,
                 const std::vector<int>& build_cols,
                 const RelationChunk& probe,
                 const std::vector<int>& probe_cols,
                 const uint32_t* probe_rows, const FlatHashTable::Range* runs,
                 size_t n, uint32_t* counts, uint32_t* out) {
  size_t kept = 0;
  if (build_cols.size() == 1) {
    // Single-key joins (the common case): one column pair, no inner loop.
    const TermId* b =
        build.columns[static_cast<size_t>(build_cols[0])].data();
    const TermId* p =
        probe.columns[static_cast<size_t>(probe_cols[0])].data();
    for (size_t i = 0; i < n; ++i) {
      const size_t before = kept;
      const TermId key = p[probe_rows[i]];
      for (const uint32_t* row = runs[i].begin; row != runs[i].end; ++row) {
        if (out != nullptr) out[kept] = *row;
        kept += b[*row] == key ? 1 : 0;
      }
      counts[i] = static_cast<uint32_t>(kept - before);
    }
    return kept;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t before = kept;
    for (const uint32_t* row = runs[i].begin; row != runs[i].end; ++row) {
      bool equal = true;
      for (size_t k = 0; k < build_cols.size(); ++k) {
        equal = equal &&
                build.columns[static_cast<size_t>(build_cols[k])][*row] ==
                    probe.columns[static_cast<size_t>(probe_cols[k])]
                                 [probe_rows[i]];
      }
      if (out != nullptr) out[kept] = *row;
      kept += equal ? 1 : 0;
    }
    counts[i] = static_cast<uint32_t>(kept - before);
  }
  return kept;
}

}  // namespace

size_t CountKeyMatches(const RelationChunk& build,
                       const std::vector<int>& build_cols,
                       const RelationChunk& probe,
                       const std::vector<int>& probe_cols,
                       const uint32_t* probe_rows,
                       const FlatHashTable::Range* runs, size_t n,
                       uint32_t* counts) {
  return MatchRuns(build, build_cols, probe, probe_cols, probe_rows, runs, n,
                   counts, nullptr);
}

size_t SelectKeyMatches(const RelationChunk& build,
                        const std::vector<int>& build_cols,
                        const RelationChunk& probe,
                        const std::vector<int>& probe_cols,
                        const uint32_t* probe_rows,
                        const FlatHashTable::Range* runs, size_t n,
                        uint32_t* counts, uint32_t* out) {
  return MatchRuns(build, build_cols, probe, probe_cols, probe_rows, runs, n,
                   counts, out);
}

void Iota(size_t begin, size_t end, std::vector<uint32_t>& sel) {
  const size_t old = sel.size();
  sel.resize(old + (end - begin));
  uint32_t* out = sel.data() + old;
  for (size_t r = begin; r < end; ++r) {
    *out++ = static_cast<uint32_t>(r);
  }
}

void Filter(const IdVector& column, TermId value, size_t begin, size_t end,
            std::vector<uint32_t>& sel) {
  const size_t old = sel.size();
  sel.resize(old + (end - begin));
  uint32_t* out = sel.data() + old;
  const TermId* col = column.data();
  for (size_t r = begin; r < end; ++r) {
    *out = static_cast<uint32_t>(r);
    out += col[r] == value ? 1 : 0;
  }
  sel.resize(static_cast<size_t>(out - sel.data()));
}

void FilterRowsEqual(const IdVector& a, const IdVector& b, size_t begin,
                     size_t end, std::vector<uint32_t>& sel) {
  const size_t old = sel.size();
  sel.resize(old + (end - begin));
  uint32_t* out = sel.data() + old;
  const TermId* pa = a.data();
  const TermId* pb = b.data();
  for (size_t r = begin; r < end; ++r) {
    *out = static_cast<uint32_t>(r);
    out += pa[r] == pb[r] ? 1 : 0;
  }
  sel.resize(static_cast<size_t>(out - sel.data()));
}

void Refine(const IdVector& column, TermId value,
            std::vector<uint32_t>& sel) {
  const TermId* col = column.data();
  uint32_t* out = sel.data();
  for (uint32_t r : sel) {
    *out = r;
    out += col[r] == value ? 1 : 0;
  }
  sel.resize(static_cast<size_t>(out - sel.data()));
}

void RefineNotNull(const IdVector& column, std::vector<uint32_t>& sel) {
  const TermId* col = column.data();
  uint32_t* out = sel.data();
  for (uint32_t r : sel) {
    *out = r;
    out += col[r] != rdf::kNullTermId ? 1 : 0;
  }
  sel.resize(static_cast<size_t>(out - sel.data()));
}

namespace {

/// True when the cell of row r holds `value`.
bool CellContains(const IdListColumn& lists, uint32_t r, TermId value) {
  const TermId* begin = lists.values.data() + lists.offsets[r];
  const TermId* end = lists.values.data() + lists.offsets[r + 1];
  return std::find(begin, end, value) != end;
}

template <typename T>
void GatherImpl(const std::vector<T>& src, const std::vector<uint32_t>& sel,
                std::vector<T>& dst) {
  const size_t old = dst.size();
  dst.resize(old + sel.size());
  T* out = dst.data() + old;
  const T* in = src.data();
  for (size_t i = 0; i < sel.size(); ++i) {
    out[i] = in[sel[i]];
  }
}

}  // namespace

void RefineListContains(const IdListColumn& lists, TermId value,
                        std::vector<uint32_t>& sel) {
  uint32_t* out = sel.data();
  for (uint32_t r : sel) {
    *out = r;
    out += CellContains(lists, r, value) ? 1 : 0;
  }
  sel.resize(static_cast<size_t>(out - sel.data()));
}

void RefineListNotEmpty(const IdListColumn& lists,
                        std::vector<uint32_t>& sel) {
  const uint32_t* offsets = lists.offsets.data();
  uint32_t* out = sel.data();
  for (uint32_t r : sel) {
    *out = r;
    out += offsets[r + 1] != offsets[r] ? 1 : 0;
  }
  sel.resize(static_cast<size_t>(out - sel.data()));
}

void FilterListContains(const IdListColumn& lists,
                        const std::vector<uint32_t>& rows,
                        const IdVector& values, std::vector<uint32_t>& keep) {
  const size_t old = keep.size();
  keep.resize(old + rows.size());
  uint32_t* out = keep.data() + old;
  for (size_t i = 0; i < rows.size(); ++i) {
    *out = static_cast<uint32_t>(i);
    out += CellContains(lists, rows[i], values[i]) ? 1 : 0;
  }
  keep.resize(static_cast<size_t>(out - keep.data()));
}

void ListExpand(const IdListColumn& lists, const std::vector<uint32_t>& rows,
                std::vector<uint32_t>& repeat,
                std::vector<uint32_t>& positions) {
  const uint32_t* offsets = lists.offsets.data();
  size_t total = 0;
  for (uint32_t r : rows) total += offsets[r + 1] - offsets[r];
  const size_t old_repeat = repeat.size();
  const size_t old_positions = positions.size();
  repeat.resize(old_repeat + total);
  positions.resize(old_positions + total);
  uint32_t* rep = repeat.data() + old_repeat;
  uint32_t* pos = positions.data() + old_positions;
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t r = rows[i];
    for (uint32_t p = offsets[r]; p < offsets[r + 1]; ++p) {
      *rep++ = static_cast<uint32_t>(i);
      *pos++ = p;
    }
  }
}

void Gather(const IdVector& src, const std::vector<uint32_t>& sel,
            IdVector& dst) {
  GatherImpl(src, sel, dst);
}

void Gather(const IdVector& src, const uint32_t* sel, size_t n,
            TermId* dst) {
  const TermId* in = src.data();
  for (size_t i = 0; i < n; ++i) {
    dst[i] = in[sel[i]];
  }
}

void Repeat(const IdVector& src, const uint32_t* rows,
            const uint32_t* counts, size_t n, TermId* dst) {
  for (size_t i = 0; i < n; ++i) {
    dst = std::fill_n(dst, counts[i], src[rows[i]]);
  }
}

void Gather(const std::vector<uint32_t>& src,
            const std::vector<uint32_t>& sel, std::vector<uint32_t>& dst) {
  GatherImpl(src, sel, dst);
}

}  // namespace prost::engine::kernels
