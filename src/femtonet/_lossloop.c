/* Compiled event loop for birth-death loss chains, called through ctypes.

   Keep in lockstep with _despy.run_loss_chain: the same splitmix64 stream
   (Steele, Lea & Flood, OOPSLA 2014) and the same float operations on the
   same operands in the same order, so both backends return bit-identical
   results.  The Python twin draws that stream ahead in numpy blocks, two
   outputs per event, and takes each block in two passes: a Python loop
   that follows only the chain state and records it per event, then numpy
   passes that compute the time steps, the clocks (adding in event order)
   and the per-stream counts from that path.  This loop does all of it per
   event, drawing one output at a time.  Build with -ffp-contract=off so no
   multiply-add is fused.  The caller validates every index first
   (_despy.check_loss_chain): 0 <= min_state <= *chain < n_states and every
   limit < n_states, so the chain state never leaves [0, n_states). */
#include <math.h>
#include <stdint.h>

static uint64_t next(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Returns the final RNG state; *chain holds the start state on entry and the
   final chain state on exit.  seen, rejected, tis and elapsed start zeroed. */
uint64_t run_loss_chain(uint64_t state, int64_t target, int64_t n_streams,
                        const double *rates, const int64_t *limits,
                        const double *srv, int64_t min_state, int64_t *chain,
                        int64_t *seen, int64_t *rejected, double *tis,
                        double *elapsed)
{
    double lam_total = 0.0;
    for (int64_t k = 0; k < n_streams; k++)
        lam_total += rates[k];
    int64_t i = *chain, arrivals = 0;
    while (lam_total > 0.0 && arrivals < target) {
        double rate = lam_total + srv[i];
        double u = (double)(next(&state) >> 11) / 9007199254740992.0;
        double dt = -log(1.0 - u) / rate;
        tis[i] += dt;
        *elapsed += dt;

        double pick = ((double)(next(&state) >> 11) / 9007199254740992.0) * rate;
        if (pick < lam_total) {
            arrivals++;
            double acc = 0.0;
            for (int64_t k = 0; k < n_streams; k++) {
                acc += rates[k];
                if (pick < acc) {
                    seen[k]++;
                    if (i < limits[k]) i++;
                    else rejected[k]++;
                    break;
                }
            }
        } else if (i > min_state) {
            i--;
        }
    }
    *chain = i;
    return state;
}
