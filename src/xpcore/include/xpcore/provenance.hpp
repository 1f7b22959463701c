#pragma once

/// \file provenance.hpp
/// The machine-provenance block stamped into benchmark result documents.
///
/// A benchmark number without the machine it was measured on is noise in
/// the trajectory. The block is one JSON object: CPU model, best SIMD
/// dispatch level, hardware thread count, the cache hierarchy read from
/// sysfs, and the compiled GEMM cache blocking of every vector level the
/// host runs.

#include <string>

namespace xpcore {

/// The provenance object, serialized as a JSON value (no trailing
/// newline). `indent` spaces prefix the nested lines so the block can be
/// embedded at any depth of a pretty-printed document; the first line is
/// not indented (it follows a `"machine": ` key).
std::string machine_provenance_json(int indent = 2);

}  // namespace xpcore
