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
   them.  Build with
   -ffp-contract=off so no multiply-add is fused.  The caller validates
   every index first (_despy.check_loss_chain): 0 <= min_state <= the start
   state < n_states and every limit < n_states, so the chain state never
   leaves [0, n_states). */
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
   `state` and chain state *chain; lam_total > 0 is the sum of the rates in
   stream order.  The counted events add to seen, rejected, tis and
   *elapsed.  Returns the final RNG state and leaves the final chain state
   in *chain. */
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

static double total_rate(int64_t n_streams, const double *rates)
{
    double lam_total = 0.0;
    for (int64_t k = 0; k < n_streams; k++)
        lam_total += rates[k];
    return lam_total;
}

/* One run of `target` counted arrivals.  Returns the final RNG state;
   *chain holds the start state on entry and the final chain state on exit.
   seen, rejected, tis and elapsed start zeroed. */
uint64_t run_loss_chain(uint64_t state, int64_t target, int64_t n_streams,
                        const double *rates, const int64_t *limits,
                        const double *srv, int64_t min_state, int64_t *chain,
                        int64_t *seen, int64_t *rejected, double *tis,
                        double *elapsed)
{
    double lam_total = total_rate(n_streams, rates);
    if (lam_total > 0.0)
        state = walk(state, chain, 0, target, lam_total, n_streams, rates, limits,
                     srv, min_state, seen, rejected, tis, elapsed);
    return state;
}

/* Every replication of one estimate.  Replication r starts at min_state
   from RNG state seeds[r] and runs warm[r] uncounted arrivals, then
   target[r] counted ones.  rows holds the seen rows, then the rejected
   rows, n_streams counts to a row, one row per replication.  tis holds
   n_states time-in-state sums followed by n_states of scratch for one
   replication's clocks; each replication's time in state and elapsed time
   are added to tis and *elapsed in replication order.  rows, tis and
   elapsed start zeroed. */
void run_replications(int64_t n_reps, const uint64_t *seeds, const int64_t *warm,
                      const int64_t *target, int64_t n_streams, const double *rates,
                      const int64_t *limits, int64_t n_states, const double *srv,
                      int64_t min_state, int64_t *rows, double *tis, double *elapsed)
{
    double lam_total = total_rate(n_streams, rates);
    double *rep_tis = tis + n_states;
    if (!(lam_total > 0.0))
        return; /* no event is ever drawn */
    for (int64_t r = 0; r < n_reps; r++) {
        int64_t chain = min_state;
        double rep_elapsed = 0.0;
        for (int64_t j = 0; j < n_states; j++)
            rep_tis[j] = 0.0;
        walk(seeds[r], &chain, warm[r], target[r], lam_total, n_streams, rates,
             limits, srv, min_state, rows + r * n_streams,
             rows + (n_reps + r) * n_streams, rep_tis, &rep_elapsed);
        for (int64_t j = 0; j < n_states; j++)
            tis[j] += rep_tis[j];
        *elapsed += rep_elapsed;
    }
}
