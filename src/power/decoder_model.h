// Decoder-concurrency model — the Fig. 2(b)/(c) motivation experiment.
//
// Decoding the nine FoV tiles of a one-second segment with n concurrent
// MediaCodec decoders: total decode time shrinks sublinearly with n (the
// tiles parallelise, but scheduling overhead grows), while decode power
// grows superlinearly (context switches, more cores lit up). The paper's
// Pixel 3 endpoints: 1 decoder = 1.3 s @ 241 mW, 9 decoders = 0.5 s @
// 846 mW; the Ptile pipeline decodes the same content as one tile in 0.24 s
// @ 287 mW. The model's constants (decoder_model.cpp) reproduce them:
//   time(n)  = 0.47 + (1.3 - 0.47) * n^-1.2 s,
//   power(n) = 241 * n^0.57 mW.
//
// Processing *energy* per segment additionally pays the playback pipeline's
// base power for as long as the decode runs, which is why an intermediate
// decoder count (4 in the paper, Fig. 2(c)) minimises Ctile's energy: few
// decoders keep the pipeline busy too long, many decoders burn too much
// power.
//
// The model holds no state: each function reads only those constants.
#pragma once

#include <cstddef>

namespace ps360::power {

// Time to decode one segment's FoV tiles with n concurrent decoders (s).
double decode_time_s(std::size_t n_decoders);

// Power draw while those n decoders run (mW).
double decode_power_mw(std::size_t n_decoders);

// Energy to decode one segment with n decoders, including the pipeline base
// power over the decode window (mJ).
double decode_energy_mj(std::size_t n_decoders);

// Full processing energy (decode + view generation) per segment (mJ).
double processing_energy_mj(std::size_t n_decoders);

// Same quantities for the Ptile pipeline.
double ptile_decode_time_s();
double ptile_decode_power_mw();
double ptile_decode_energy_mj();
double ptile_processing_energy_mj();

// The decoder count with minimal processing energy in [1, max_n].
std::size_t best_decoder_count(std::size_t max_n = 9);

}  // namespace ps360::power
