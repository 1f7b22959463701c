#pragma once

// Host-speed references for the in-process microsecond metrics.
//
// The shared 4-vCPU host runs single-threaded code at two speeds ~1.6x apart
// and switches between them per vCPU every few seconds to minutes. A
// 5-70 us call timed on its own reads whichever state it ran in. Timed next
// to a fixed piece of similar work, the ratio of the two moves by a few
// percent. These references are that fixed work: benchmark-made inputs and
// code built without the program's compile options (see CMakeLists.txt), so
// no change to the program can alter them.

#include <string>

namespace bench {

struct SpeedReference {
    std::string input;
    double (*pass)(const std::string&) = nullptr;
    double nominal_ms = 0.0;  ///< one pass on the 4-vCPU AVX-512 host in its faster state

    /// One pass; the returned checksum keeps the work from being optimized away.
    double run() const { return pass(input); }
};

/// 256 lines of 8 numbers: getline, std::from_chars, a pow/log2 sum. Shaped
/// like `measure::load_text`.
SpeedReference text_reference();

/// 40 JSON-like terms scanned ten times: keys into a std::map, numbers via
/// std::from_chars, a pow/log2 sum. Shaped like `model_from_json_document`
/// followed by `evaluate`.
SpeedReference json_reference();

}  // namespace bench
