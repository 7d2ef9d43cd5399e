/* Compiled event loop for birth-death loss chains, called through ctypes.

   Keep in lockstep with _despy: the same splitmix64 stream (Steele, Lea &
   Flood, OOPSLA 2014) and the same float operations on the same operands in
   the same order, so both backends return bit-identical results.  The
   Python twin draws that stream ahead in numpy blocks, two outputs per
   event, and takes each block in two passes: a Python loop that follows
   only the chain state and records it per event, then numpy passes that
   compute the time steps, the clocks (adding in event order) and the
   per-stream counts from that path.  Its arrival test compares the move
   draw with a per-state threshold, which decides exactly as this loop's
   `pick < lam_total` does.  This loop does all of it per event, drawing one
   output at a time.  Warm-up events skip the time-step draw's mix, the log
   and the clocks here, and pass 2 in the twin; only the move draw decides
   them.  Build with -ffp-contract=off so no multiply-add is fused.

   Like the twin, this file exports one walker, run_walks, which checks
   nothing: des.Kernel, the one front over both walkers, validates every
   argument first (_despy.check_loss_chain), so 0 <= min_state <= each start
   state < n_states, every limit < n_states and the chain state never leaves
   [0, n_states), and it adds the walks' clocks up itself. */
#include <math.h>
#include <stdint.h>

#define GAMMA 0x9E3779B97F4A7C15ULL

static uint64_t next(uint64_t *state)
{
    uint64_t z = (*state += GAMMA);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static double uniform(uint64_t *state)
{
    return (double)(next(state) >> 11) / 9007199254740992.0;
}

/* The stream an arrival drawn at pick < lam_total belongs to: the first
   whose running rate sum exceeds pick. */
static int64_t stream_of(double pick, int64_t n_streams, const double *rates)
{
    double acc = 0.0;
    int64_t k = 0;
    for (; k < n_streams - 1; k++) {
        acc += rates[k];
        if (pick < acc)
            break;
    }
    return k;
}

/* Runs `warm` uncounted arrivals, then `target` counted ones, from RNG state
   `state` and chain state *chain; lam_total, the sum of the rates in stream
   order, is > 0 unless both counts are 0.  The counted events add to seen,
   rejected, tis and *elapsed.  Returns the final RNG state and leaves the
   final chain state in *chain. */
static uint64_t walk(uint64_t state, int64_t *chain, int64_t warm, int64_t target,
                     double lam_total, int64_t n_streams, const double *rates,
                     const int64_t *limits, const double *srv, int64_t min_state,
                     int64_t *seen, int64_t *rejected, double *tis, double *elapsed)
{
    int64_t i = *chain;
    for (int64_t arrivals = 0; arrivals < warm;) {
        state += GAMMA; /* the time-step draw, unused */
        double pick = uniform(&state) * (lam_total + srv[i]);
        if (pick < lam_total) {
            arrivals++;
            if (i < limits[stream_of(pick, n_streams, rates)])
                i++;
        } else if (i > min_state) {
            i--;
        }
    }
    for (int64_t arrivals = 0; arrivals < target;) {
        double rate = lam_total + srv[i];
        double dt = -log(1.0 - uniform(&state)) / rate;
        tis[i] += dt;
        *elapsed += dt;

        double pick = uniform(&state) * rate;
        if (pick < lam_total) {
            arrivals++;
            int64_t k = stream_of(pick, n_streams, rates);
            seen[k]++;
            if (i < limits[k])
                i++;
            else
                rejected[k]++;
        } else if (i > min_state) {
            i--;
        }
    }
    *chain = i;
    return state;
}

/* Walk r starts at chain state chains[r] from RNG state states[r], runs
   warm[r] uncounted arrivals and then target[r] counted ones, and leaves its
   final chain and RNG state there.  Its counted events add to row r of seen
   and rejected (n_streams counts each), of tis (n_states clocks) and to
   elapsed[r]; rows, tis and elapsed start zeroed.  The caller asks for no
   arrival from a chain whose rates sum to 0: no draw there is one. */
void run_walks(int64_t n_walks, uint64_t *states, int64_t *chains, const int64_t *warm,
               const int64_t *target, int64_t n_streams, const double *rates,
               const int64_t *limits, int64_t n_states, const double *srv,
               int64_t min_state, int64_t *seen, int64_t *rejected, double *tis,
               double *elapsed)
{
    double lam_total = 0.0;
    for (int64_t k = 0; k < n_streams; k++)
        lam_total += rates[k];
    for (int64_t r = 0; r < n_walks; r++)
        states[r] = walk(states[r], chains + r, warm[r], target[r], lam_total, n_streams,
                         rates, limits, srv, min_state, seen + r * n_streams,
                         rejected + r * n_streams, tis + r * n_states, elapsed + r);
}
