/* Native hot-path kernels for the cycle-level NoC simulator.
 *
 * Compiled on demand (see build.py) and loaded through ctypes; every
 * function operates directly on the simulator's numpy buffers through a
 * pointer table, so Python-side views stay coherent without copies.
 *
 * BIT-IDENTITY CONTRACT: each phase replicates the corresponding
 * pure-numpy phase exactly — same arbitration tie-breaks (numpy argmin /
 * argmax take the first occurrence; stable argsort keeps column order),
 * same order of floating-point operations, same statistics accumulation.
 * Every random draw goes through numpy's own distribution code
 * (libnpyrandom) on the simulator's own Generator states, in the
 * reference's call order, so both backends advance the same streams.
 * Any semantic change here must keep tests/test_native_backend.py's
 * numpy-vs-native equivalence suite green.
 *
 * ABI: the one simulation entry point is noc_run(void **pt, const long
 * long *cfg, long long *ctr, long long cycle, long long ncycles), which
 * runs behavior -> cores -> memory -> network -> ejection for ncycles
 * cycles.  `pt` is the pointer table (PT_* slots below), `cfg`
 * immutable configuration constants (CFG_*), `ctr` mutable 64-bit
 * counters (CTR_*) mirrored back onto the Python stats objects.  This
 * file is the only place the layout is written down: noc_abi() exports
 * every slot and every #define Python restates, and the loader
 * (build.py) checks the Python side against that table.
 */

#include <stdbool.h>
#include <stdint.h>
#include <string.h>
#include <math.h>
#include <time.h>

#include "numpy/random/bitgen.h"

/* numpy's distribution functions (numpy/random/lib/libnpyrandom.a),
 * declared here because distributions.h pulls in Python.h. */
double random_lognormal(bitgen_t *state, double mean, double sigma);
int64_t random_geometric(bitgen_t *state, double p);
double random_exponential(bitgen_t *state, double scale);
double random_pareto(bitgen_t *state, double a);
uint64_t random_bounded_uint64(bitgen_t *state, uint64_t off, uint64_t rng,
                               uint64_t mask, bool use_masked);
void random_bounded_uint64_fill(bitgen_t *state, uint64_t off, uint64_t rng,
                                intptr_t cnt, bool use_masked, uint64_t *out);

typedef long long i64;

/* ------------------------------------------------------------------ */
/* Flit meta layout (repro.network.flit)                               */
/* ------------------------------------------------------------------ */
#define NODE_MASK ((1LL << 14) - 1)
#define SRC_SHIFT 14
#define KIND_SHIFT 28
#define CBIT (1LL << 30)
#define SEQ_SHIFT 31
#define SEQ_MASK 0xFFLL
#define HOPS_SHIFT 39
#define HOPS_MASK ((1LL << 20) - 1)
#define HOP_ONE (1LL << 39)
#define KEY_MAX 0x7FFFFFFFFFFFFFFFLL
#define SEQ_RING 256
#define HIST_BUCKETS 1024
#define THROTTLE_MAX 128.0
#define MAX_PORTS 64

#define KIND_REQUEST 0
#define KIND_REPLY 1

/* ctr[CTR_ERROR] codes */
#define ERR_SLOT_MISMATCH 1
#define ERR_MEM_RING_OVERFLOW 2
#define ERR_PENDING_OVERFLOW 3
#define ERR_EJECT_OVERFLOW 4
#define ERR_TOO_MANY_PORTS 5

#define ARB_OLDEST 0
#define ARB_YOUNGEST 1
#define ARB_RANDOM 2

/* cfg[CFG_LOC_KIND]: the built-in data-locality samplers */
#define LOC_UNIFORM 0
#define LOC_EXPONENTIAL 1
#define LOC_POWERLAW 2

/* Every #define above, exported by name through noc_abi(). */
#define ABI_DEFINES(X)                                                  \
    X(NODE_MASK) X(SRC_SHIFT) X(KIND_SHIFT) X(CBIT) X(SEQ_SHIFT)        \
    X(SEQ_MASK) X(HOPS_SHIFT) X(HOPS_MASK) X(HOP_ONE) X(KEY_MAX)        \
    X(SEQ_RING) X(HIST_BUCKETS) X(THROTTLE_MAX) X(MAX_PORTS)            \
    X(KIND_REQUEST) X(KIND_REPLY)                                       \
    X(ERR_SLOT_MISMATCH) X(ERR_MEM_RING_OVERFLOW)                       \
    X(ERR_PENDING_OVERFLOW) X(ERR_EJECT_OVERFLOW)                       \
    X(ERR_TOO_MANY_PORTS)                                               \
    X(ARB_OLDEST) X(ARB_YOUNGEST) X(ARB_RANDOM)                         \
    X(LOC_UNIFORM) X(LOC_EXPONENTIAL) X(LOC_POWERLAW)

/* Pointer-table slots.  accel.py fills the table by these names, so
 * slots may be added, removed or reordered here alone (queue_take
 * needs each queue's seven slots consecutive, in this order). */
#define PT_SLOTS(X)                                                     \
    X(PT_RING_META) X(PT_RING_BIRTH) X(PT_LAT_OUT) X(PT_TARGET_FLAT)    \
    X(PT_LINK_UP) X(PT_NEIGHBOR) X(PT_REVERSE) X(PT_P0TAB) X(PT_P1TAB)  \
    X(PT_CONGESTED)                                                     \
    X(PT_REQ_DEST) X(PT_REQ_KIND) X(PT_REQ_FLITS) X(PT_REQ_STAMP)       \
    X(PT_REQ_SEQ) X(PT_REQ_HEAD) X(PT_REQ_COUNT)                        \
    X(PT_RESP_DEST) X(PT_RESP_KIND) X(PT_RESP_FLITS) X(PT_RESP_STAMP)   \
    X(PT_RESP_SEQ) X(PT_RESP_HEAD) X(PT_RESP_COUNT)                     \
    X(PT_THR_COUNTER) X(PT_THR_RATE) X(PT_STARV_RING) X(PT_STARV_SUM)   \
    X(PT_INJ_PER_NODE) X(PT_STARVED_CYC) X(PT_PORT_STARVED_CYC)         \
    X(PT_LAT_HIST)                                                      \
    X(PT_G_META) X(PT_G_BIRTH) X(PT_G_KEY) X(PT_G_AVAIL) X(PT_G_OUTM)   \
    X(PT_G_OUTB)                                                        \
    X(PT_H_KEY) X(PT_H_OUT) X(PT_W_NODE) X(PT_W_IN) X(PT_W_DOWN)        \
    X(PT_W_DPORT)                                                       \
    X(PT_BUF_META) X(PT_BUF_BIRTH) X(PT_BUF_HEAD) X(PT_BUF_COUNT)       \
    X(PT_RESERVED)                                                      \
    X(PT_EJ_NODE) X(PT_EJ_SRC) X(PT_EJ_KIND) X(PT_EJ_SEQ) X(PT_EJ_CBIT) \
    X(PT_CO_ACTIVE) X(PT_CO_RETIRED) X(PT_CO_ISSUE_POS) X(PT_CO_RECV)   \
    X(PT_CO_COMPLETE) X(PT_CO_ISSUED) X(PT_CO_COMPLETED) X(PT_CO_HEAD)  \
    X(PT_CO_GAP) X(PT_CO_EPOCH_INSNS) X(PT_CO_STALL) X(PT_CO_WSTALL)    \
    X(PT_MISS_OUT) X(PT_VISITED)                                        \
    X(PT_MEM_SRV) X(PT_MEM_REQ) X(PT_MEM_SEQ) X(PT_MEM_CNT)             \
    X(PT_PEND_S) X(PT_PEND_R) X(PT_PEND_Q) X(PT_SCR_S) X(PT_SCR_R)      \
    X(PT_SCR_Q)                                                         \
    X(PT_CO_MISSES) X(PT_CO_EPOCH_FLITS) X(PT_ISSUE_DEST)               \
    X(PT_RNG_DEST) X(PT_RNG_PHASE) X(PT_RNG_ARB) X(PT_FCFG)             \
    X(PT_BH_MU) X(PT_BH_SIGMA) X(PT_BH_MULT) X(PT_BH_TIMER)             \
    X(PT_EXPIRED) X(PT_DRAW_D) X(PT_DRAW_A) X(PT_DRAW_SX) X(PT_DRAW_SY) \
    X(PT_LOC_X) X(PT_LOC_Y) X(PT_LOC_ORDER) X(PT_LOC_START)             \
    X(PT_LOC_COUNT) X(PT_LOC_ECC)

/* cfg slots */
#define CFG_SLOTS(X)                                                    \
    X(CFG_N) X(CFG_P) X(CFG_DEPTH) X(CFG_EJECT_W) X(CFG_QCAP) X(CFG_SW) \
    X(CFG_ARB) X(CFG_ISSUE_W) X(CFG_WINDOW) X(CFG_MSHR)                 \
    X(CFG_REPLY_FLITS) X(CFG_L2_LAT) X(CFG_EJ_CAP) X(CFG_PEND_CAP)      \
    X(CFG_BUF_CAP) X(CFG_SLOT_COUNT) X(CFG_REQ_FLITS) X(CFG_BUFFERED)   \
    X(CFG_LOC_KIND) X(CFG_LOC_GRID) X(CFG_WIDTH) X(CFG_HEIGHT)          \
    X(CFG_WRAPS) X(CFG_MAX_DIST) X(CFG_LOC_BUCKETS) X(CFG_PROFILE)

/* float64 constants, in the PT_FCFG array */
#define FCFG_SLOTS(X)                                                   \
    X(FCFG_LOC_PARAM) X(FCFG_PHASE_MU) X(FCFG_PHASE_SIGMA)              \
    X(FCFG_PHASE_P) X(FCFG_FLITS_PER_MISS)

/* ctr slots */
#define CTR_SLOTS(X)                                                    \
    X(CTR_CURSOR) X(CTR_SPOS) X(CTR_SSEEN) X(CTR_CYCLES) X(CTR_INJ)     \
    X(CTR_EJ_FLITS) X(CTR_HOPS) X(CTR_DEFL) X(CTR_BWRITES)              \
    X(CTR_BREADS) X(CTR_OCC) X(CTR_LAT_SUM) X(CTR_LAT_CNT)              \
    X(CTR_LAT_MAX) X(CTR_HOPS_SUM) X(CTR_INJLAT_SUM) X(CTR_INJLAT_CNT)  \
    X(CTR_HEAD_DIRTY) X(CTR_MEM_CURSOR) X(CTR_PEND_CNT)                 \
    X(CTR_REQ_SERVICED) X(CTR_REP_ISSUED) X(CTR_EJ_COUNT) X(CTR_ERROR)  \
    X(CTR_NS_BEHAVIOR) X(CTR_NS_CORES) X(CTR_NS_MEMORY)                 \
    X(CTR_NS_NETWORK) X(CTR_NS_EJECTION)

#define ENUM_MEMBER(name) name,
enum { PT_SLOTS(ENUM_MEMBER) PT_NUM_SLOTS };
enum { CFG_SLOTS(ENUM_MEMBER) CFG_NUM };
enum { CTR_SLOTS(ENUM_MEMBER) CTR_NUM };
enum { FCFG_SLOTS(ENUM_MEMBER) FCFG_NUM };

#define ABI_ALL(X)                                                      \
    PT_SLOTS(X) CFG_SLOTS(X) CTR_SLOTS(X) FCFG_SLOTS(X) ABI_DEFINES(X)
#define ABI_NAME(name) #name,
#define ABI_VALUE(name) (i64)(name),
static const char *const abi_names[] = { ABI_ALL(ABI_NAME) };
static const i64 abi_values[] = { ABI_ALL(ABI_VALUE) };

/* The name→value table of every slot and mirrored #define; returns the
 * entry count.  Read once per process by build.load_library. */
i64 noc_abi(const char *const **names, const i64 **values)
{
    *names = abi_names;
    *values = abi_values;
    return (i64)(sizeof abi_values / sizeof abi_values[0]);
}

static int check_abi(const i64 *cfg, i64 *ctr)
{
    if (cfg[CFG_SLOT_COUNT] != PT_NUM_SLOTS) {
        ctr[CTR_ERROR] = ERR_SLOT_MISMATCH;
        return 0;
    }
    if (cfg[CFG_P] + 1 > MAX_PORTS) {
        ctr[CTR_ERROR] = ERR_TOO_MANY_PORTS;
        return 0;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* Shared pieces                                                       */
/* ------------------------------------------------------------------ */

static inline void account_ejection(i64 *ctr, i64 *hist, i64 meta, i64 lat)
{
    ctr[CTR_EJ_FLITS] += 1;
    ctr[CTR_LAT_SUM] += lat;
    ctr[CTR_LAT_CNT] += 1;
    if (lat > ctr[CTR_LAT_MAX])
        ctr[CTR_LAT_MAX] = lat;
    hist[lat > HIST_BUCKETS - 1 ? HIST_BUCKETS - 1 : lat] += 1;
    ctr[CTR_HOPS_SUM] += (meta >> HOPS_SHIFT) & HOPS_MASK;
}

static inline int emit_ejected(void **pt, const i64 *cfg, i64 *ctr,
                               i64 node, i64 meta)
{
    i64 k = ctr[CTR_EJ_COUNT];
    if (k >= cfg[CFG_EJ_CAP]) {
        ctr[CTR_ERROR] = ERR_EJECT_OVERFLOW;
        return 0;
    }
    ((i64 *)pt[PT_EJ_NODE])[k] = node;
    ((i64 *)pt[PT_EJ_SRC])[k] = (meta >> SRC_SHIFT) & NODE_MASK;
    ((i64 *)pt[PT_EJ_KIND])[k] = (meta >> KIND_SHIFT) & 0x3;
    ((i64 *)pt[PT_EJ_SEQ])[k] = (meta >> SEQ_SHIFT) & SEQ_MASK;
    ((unsigned char *)pt[PT_EJ_CBIT])[k] =
        (unsigned char)((meta >> 30) & 0x1);
    ctr[CTR_EJ_COUNT] = k + 1;
    return 1;
}

/* Take one flit from a FlitQueueArray head entry at `node`
 * (repro.network.queues.FlitQueueArray.take_flit). */
static inline void queue_take(void **pt, int base_slot, i64 qcap, i64 node,
                              i64 *dest, i64 *kind, i64 *seq, i64 *stamp)
{
    int32_t *head = (int32_t *)pt[base_slot + 5];
    int32_t *count = (int32_t *)pt[base_slot + 6];
    i64 h = head[node];
    i64 idx = node * qcap + h;
    *dest = ((int32_t *)pt[base_slot + 0])[idx];
    *kind = ((int8_t *)pt[base_slot + 1])[idx];
    *stamp = ((i64 *)pt[base_slot + 3])[idx];
    *seq = ((int16_t *)pt[base_slot + 4])[idx];
    int16_t *flits = (int16_t *)pt[base_slot + 2];
    flits[idx] -= 1;
    if (flits[idx] == 0) {
        head[node] = (int32_t)((h + 1) % qcap);
        count[node] -= 1;
    }
}

/* NI admission shared by both flow controls
 * (RouterEngine.injection_stage + InjectionThrottleGate.decide +
 * NocModel._record_starvation).  mode 0 = bless (route onto a free
 * link), mode 1 = credit (push into the NI input buffer). */
static void injection_stage(void **pt, const i64 *cfg, i64 *ctr, i64 cycle,
                            const unsigned char *capacity, int mode,
                            unsigned char *avail)
{
    i64 n = cfg[CFG_N], p = cfg[CFG_P], qcap = cfg[CFG_QCAP];
    i64 sw = cfg[CFG_SW];
    i64 spos = ctr[CTR_SPOS];
    const int32_t *req_count = (const int32_t *)pt[PT_REQ_COUNT];
    const int32_t *resp_count = (const int32_t *)pt[PT_RESP_COUNT];
    int32_t *thr_counter = (int32_t *)pt[PT_THR_COUNTER];
    const double *thr_rate = (const double *)pt[PT_THR_RATE];
    unsigned char *starv_ring = (unsigned char *)pt[PT_STARV_RING];
    int32_t *starv_sum = (int32_t *)pt[PT_STARV_SUM];
    i64 *inj_per_node = (i64 *)pt[PT_INJ_PER_NODE];
    i64 *starved_cyc = (i64 *)pt[PT_STARVED_CYC];
    i64 *port_starved = (i64 *)pt[PT_PORT_STARVED_CYC];
    const signed char *p0tab = (const signed char *)pt[PT_P0TAB];
    const signed char *p1tab = (const signed char *)pt[PT_P1TAB];
    i64 *out_meta = (i64 *)pt[PT_G_OUTM];
    i64 *out_birth = (i64 *)pt[PT_G_OUTB];
    i64 pp = p + 1, bufcap = cfg[CFG_BUF_CAP];
    i64 *buf_meta = (i64 *)pt[PT_BUF_META];
    i64 *buf_birth = (i64 *)pt[PT_BUF_BIRTH];
    int32_t *buf_head = (int32_t *)pt[PT_BUF_HEAD];
    int32_t *buf_count = (int32_t *)pt[PT_BUF_COUNT];

    for (i64 node = 0; node < n; node++) {
        int resp_has = resp_count[node] > 0;
        int req_has = req_count[node] > 0;
        int wanted = resp_has || req_has;
        int cap = capacity[node] != 0;
        int inject_resp = resp_has && cap;
        int trying_req = req_has && cap && !inject_resp;
        int inject_req = 0;
        if (trying_req) {
            /* Algorithm 3: the counter advances on every attempt. */
            int32_t c = (int32_t)((thr_counter[node] + 1) % 128);
            thr_counter[node] = c;
            inject_req = (double)c >= thr_rate[node] * THROTTLE_MAX;
        }
        for (int which = 0; which < 2; which++) {
            int go = which == 0 ? inject_resp : inject_req;
            if (!go)
                continue;
            i64 dest, kind, seq, stamp;
            queue_take(pt, which == 0 ? PT_RESP_DEST : PT_REQ_DEST,
                       qcap, node, &dest, &kind, &seq, &stamp);
            i64 meta = dest | (node << SRC_SHIFT) | (kind << KIND_SHIFT)
                       | (seq << SEQ_SHIFT);
            if (mode == 0) {
                /* Productive port first, then the other productive
                 * direction, then the first free link (argmax). */
                const unsigned char *row = avail + node * p;
                int port = -1;
                int p0 = p0tab[node * n + dest];
                int p1 = p1tab[node * n + dest];
                if (p0 >= 0 && row[p0])
                    port = p0;
                else if (p1 >= 0 && row[p1])
                    port = p1;
                if (port < 0) {
                    port = 0;
                    for (int c = 0; c < p; c++)
                        if (row[c]) { port = c; break; }
                }
                avail[node * p + port] = 0;
                out_meta[node * p + port] = meta + HOP_ONE;
                out_birth[node * p + port] = cycle;
                ctr[CTR_INJLAT_SUM] += cycle - stamp;
                ctr[CTR_INJLAT_CNT] += 1;
            } else {
                i64 b = node * pp + p;
                i64 slot = (buf_head[b] + buf_count[b]) % bufcap;
                buf_meta[b * bufcap + slot] = meta;
                buf_birth[b * bufcap + slot] = cycle;
                buf_count[b] += 1;
                ctr[CTR_BWRITES] += 1;
            }
            ctr[CTR_INJ] += 1;
            inj_per_node[node] += 1;
        }
        /* Starvation meter (W-bit shift register) + stats. */
        int starved = wanted && !(inject_resp || inject_req);
        unsigned char old = starv_ring[node * sw + spos];
        starv_sum[node] += (int32_t)starved - (int32_t)old;
        starv_ring[node * sw + spos] = (unsigned char)starved;
        starved_cyc[node] += starved;
        port_starved[node] += wanted && !cap;
    }
    ctr[CTR_SPOS] = (spos + 1) % sw;
    ctr[CTR_SSEEN] += 1;
}

/* ------------------------------------------------------------------ */
/* FLIT-BLESS network step (DeflectFlowControl.step)                   */
/* ------------------------------------------------------------------ */
static void bless_step(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    i64 n = cfg[CFG_N], p = cfg[CFG_P], depth = cfg[CFG_DEPTH];
    i64 np = n * p;
    i64 *ring_meta = (i64 *)pt[PT_RING_META];
    i64 *ring_birth = (i64 *)pt[PT_RING_BIRTH];
    i64 *gmeta = (i64 *)pt[PT_G_META];
    i64 *gbirth = (i64 *)pt[PT_G_BIRTH];
    i64 *gkey = (i64 *)pt[PT_G_KEY];
    unsigned char *avail = (unsigned char *)pt[PT_G_AVAIL];
    i64 *out_meta = (i64 *)pt[PT_G_OUTM];
    i64 *out_birth = (i64 *)pt[PT_G_OUTB];
    i64 *hist = (i64 *)pt[PT_LAT_HIST];
    const signed char *p0tab = (const signed char *)pt[PT_P0TAB];
    const signed char *p1tab = (const signed char *)pt[PT_P1TAB];
    const unsigned char *link_up = (const unsigned char *)pt[PT_LINK_UP];
    const unsigned char *congested = (const unsigned char *)pt[PT_CONGESTED];
    const i64 *lat_out = (const i64 *)pt[PT_LAT_OUT];
    const i64 *target = (const i64 *)pt[PT_TARGET_FLAT];
    i64 arb = cfg[CFG_ARB];

    ctr[CTR_CYCLES] += 1;
    ctr[CTR_EJ_COUNT] = 0;

    /* Arrivals: copy the ring's arrival slot, clear it, advance. */
    i64 cur = ctr[CTR_CURSOR];
    memcpy(gmeta, ring_meta + cur * np, (size_t)np * sizeof(i64));
    memcpy(gbirth, ring_birth + cur * np, (size_t)np * sizeof(i64));
    memset(ring_birth + cur * np, 0xFF, (size_t)np * sizeof(i64));
    cur = (cur + 1) % depth;
    ctr[CTR_CURSOR] = cur;

    /* Arbitration keys; KEY_MAX marks empty/consumed slots.  For
     * ARB_RANDOM the key grid was prefilled by network_step. */
    for (i64 i = 0; i < np; i++) {
        if (gbirth[i] < 0) {
            gkey[i] = KEY_MAX;
        } else if (arb != ARB_RANDOM) {
            i64 k = (gbirth[i] << SRC_SHIFT)
                    | ((gmeta[i] >> SRC_SHIFT) & NODE_MASK);
            gkey[i] = arb == ARB_YOUNGEST ? -k : k;
        }
    }

    /* Ejection: up to eject_width oldest local flits per node; output
     * order is round-major, node-ascending within a round (matches the
     * numpy ej_parts concatenation). */
    for (i64 round = 0; round < cfg[CFG_EJECT_W]; round++) {
        for (i64 node = 0; node < n; node++) {
            i64 base = node * p, best = KEY_MAX;
            int bc = -1;
            for (int c = 0; c < p; c++) {
                i64 k = gkey[base + c];
                if (k != KEY_MAX && (gmeta[base + c] & NODE_MASK) == node
                    && k < best) {
                    best = k;
                    bc = c;
                }
            }
            if (bc < 0)
                continue;
            i64 m = gmeta[base + bc];
            gkey[base + bc] = KEY_MAX;
            if (!emit_ejected(pt, cfg, ctr, node, m))
                return;
            account_ejection(ctr, hist, m, cycle - gbirth[base + bc]);
        }
    }

    /* Output-port allocation: per node, flits in key order try their
     * productive ports, else deflect to the first free link.  The numpy
     * rank-by-rank loop is per-node independent, so a per-node pass is
     * exactly equivalent. */
    memcpy(avail, link_up, (size_t)np);
    memset(out_birth, 0xFF, (size_t)np * sizeof(i64));
    for (i64 node = 0; node < n; node++) {
        i64 base = node * p;
        int cols[MAX_PORTS], cnt = 0;
        for (int c = 0; c < p; c++)
            if (gkey[base + c] != KEY_MAX)
                cols[cnt++] = c;
        /* Stable insertion sort by key (ties keep column order, like
         * kind="stable" argsort). */
        for (int i = 1; i < cnt; i++) {
            int c = cols[i];
            i64 k = gkey[base + c];
            int j = i - 1;
            while (j >= 0 && gkey[base + cols[j]] > k) {
                cols[j + 1] = cols[j];
                j--;
            }
            cols[j + 1] = c;
        }
        unsigned char *row = avail + base;
        for (int i = 0; i < cnt; i++) {
            int c = cols[i];
            i64 dest = gmeta[base + c] & NODE_MASK;
            int choice = -1;
            int p0 = p0tab[node * n + dest];
            int p1 = p1tab[node * n + dest];
            if (p0 >= 0 && row[p0])
                choice = p0;
            else if (p1 >= 0 && row[p1])
                choice = p1;
            if (choice < 0) {
                /* Deflect to the first free link (np.argmax). */
                choice = 0;
                for (int f = 0; f < p; f++)
                    if (row[f]) { choice = f; break; }
                ctr[CTR_DEFL] += 1;
            }
            row[choice] = 0;
            out_meta[base + choice] = gmeta[base + c] + HOP_ONE;
            out_birth[base + choice] = gbirth[base + c];
        }
    }

    /* Injection: responses first, then throttled requests; capacity is
     * "any free healthy output link". */
    unsigned char *capacity = (unsigned char *)pt[PT_W_NODE];
    for (i64 node = 0; node < n; node++) {
        unsigned char any = 0;
        for (int c = 0; c < p; c++)
            if (avail[node * p + c]) { any = 1; break; }
        capacity[node] = any;
    }
    injection_stage(pt, cfg, ctr, cycle, capacity, 0, avail);

    /* Congestion bit (mark_congestion) + send into the ring. */
    int mark = 0;
    for (i64 node = 0; node < n; node++)
        if (congested[node]) { mark = 1; break; }
    i64 sent = 0;
    for (i64 i = 0; i < np; i++) {
        if (out_birth[i] < 0)
            continue;
        i64 m = out_meta[i];
        if (mark && congested[i / p])
            m |= CBIT;
        i64 slot = (cur + lat_out[i] - 1) % depth;
        ring_meta[slot * np + target[i]] = m;
        ring_birth[slot * np + target[i]] = out_birth[i];
        sent++;
    }
    ctr[CTR_HOPS] += sent;
    /* Bufferless: occupancy integral stays zero. */
}

/* ------------------------------------------------------------------ */
/* Buffered XY network step (CreditFlowControl.step)                   */
/* ------------------------------------------------------------------ */
static void credit_step(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    i64 n = cfg[CFG_N], p = cfg[CFG_P], depth = cfg[CFG_DEPTH];
    i64 pp = p + 1, np = n * p, bufcap = cfg[CFG_BUF_CAP];
    i64 *ring_meta = (i64 *)pt[PT_RING_META];
    i64 *ring_birth = (i64 *)pt[PT_RING_BIRTH];
    i64 *buf_meta = (i64 *)pt[PT_BUF_META];
    i64 *buf_birth = (i64 *)pt[PT_BUF_BIRTH];
    int32_t *buf_head = (int32_t *)pt[PT_BUF_HEAD];
    int32_t *buf_count = (int32_t *)pt[PT_BUF_COUNT];
    int32_t *reserved = (int32_t *)pt[PT_RESERVED];
    i64 *hkey = (i64 *)pt[PT_H_KEY];
    i64 *hout = (i64 *)pt[PT_H_OUT];
    i64 *w_node = (i64 *)pt[PT_W_NODE];
    i64 *w_in = (i64 *)pt[PT_W_IN];
    i64 *w_down = (i64 *)pt[PT_W_DOWN];
    i64 *w_dport = (i64 *)pt[PT_W_DPORT];
    unsigned char *grant = (unsigned char *)pt[PT_G_AVAIL];
    i64 *hist = (i64 *)pt[PT_LAT_HIST];
    const signed char *p0tab = (const signed char *)pt[PT_P0TAB];
    const unsigned char *link_up = (const unsigned char *)pt[PT_LINK_UP];
    const unsigned char *congested = (const unsigned char *)pt[PT_CONGESTED];
    const i64 *lat_out = (const i64 *)pt[PT_LAT_OUT];
    const i64 *neighbor = (const i64 *)pt[PT_NEIGHBOR];
    const i64 *reverse = (const i64 *)pt[PT_REVERSE];
    i64 arb = cfg[CFG_ARB];

    ctr[CTR_CYCLES] += 1;
    ctr[CTR_EJ_COUNT] = 0;

    /* Link arrivals drain into the input buffers (row-major, matching
     * np.nonzero order); each flat slot is a unique (node, port). */
    i64 cur = ctr[CTR_CURSOR];
    for (i64 i = 0; i < np; i++) {
        i64 b = ring_birth[cur * np + i];
        if (b < 0)
            continue;
        i64 node = i / p, port = i % p;
        i64 bi = node * pp + port;
        i64 slot = (buf_head[bi] + buf_count[bi]) % bufcap;
        buf_meta[bi * bufcap + slot] = ring_meta[cur * np + i];
        buf_birth[bi * bufcap + slot] = b;
        buf_count[bi] += 1;
        reserved[i] -= 1;
        ctr[CTR_BWRITES] += 1;
        ring_birth[cur * np + i] = -1;
    }
    cur = (cur + 1) % depth;
    ctr[CTR_CURSOR] = cur;

    /* Head-of-queue snapshot: key + output port per (node, in port),
     * computed once — pops during the out-port loop do NOT refresh it
     * (heads_into semantics).  hout -2 marks empty FIFOs. */
    int mark = 0;
    for (i64 node = 0; node < n; node++)
        if (congested[node]) { mark = 1; break; }
    for (i64 node = 0; node < n; node++) {
        for (i64 port = 0; port < pp; port++) {
            i64 bi = node * pp + port;
            if (buf_count[bi] <= 0) {
                hkey[bi] = KEY_MAX;
                hout[bi] = -2;
                continue;
            }
            i64 m = buf_meta[bi * bufcap + buf_head[bi]];
            i64 b = buf_birth[bi * bufcap + buf_head[bi]];
            if (arb != ARB_RANDOM) {
                i64 k = (b << SRC_SHIFT) | ((m >> SRC_SHIFT) & NODE_MASK);
                hkey[bi] = arb == ARB_YOUNGEST ? -k : k;
            }
            i64 dest = m & NODE_MASK;
            int p0 = p0tab[node * n + dest];
            hout[bi] = p0 < 0 ? p : p0;
        }
    }

    /* One winner per (node, output port); the eject port (index p) is
     * the last loop iteration, exactly like the numpy range(p + 1). */
    for (i64 op = 0; op <= p; op++) {
        i64 nw = 0;
        for (i64 node = 0; node < n; node++) {
            i64 best = KEY_MAX;
            int bc = -1;
            for (i64 port = 0; port < pp; port++) {
                i64 bi = node * pp + port;
                if (hout[bi] == op && hkey[bi] < best) {
                    best = hkey[bi];
                    bc = (int)port;
                }
            }
            if (bc < 0)
                continue;
            if (op == p) {
                /* Local delivery: pop immediately, node-ascending. */
                i64 bi = node * pp + bc;
                i64 m = buf_meta[bi * bufcap + buf_head[bi]];
                i64 b = buf_birth[bi * bufcap + buf_head[bi]];
                buf_head[bi] = (int32_t)((buf_head[bi] + 1) % bufcap);
                buf_count[bi] -= 1;
                ctr[CTR_BREADS] += 1;
                if (!emit_ejected(pt, cfg, ctr, node, m))
                    return;
                account_ejection(ctr, hist, m, cycle - b);
            } else {
                w_node[nw] = node;
                w_in[nw] = bc;
                nw++;
            }
        }
        if (op == p)
            continue;
        /* Two-phase grant: all credit checks read buffer/reserve state
         * as of this out-port iteration's start (the numpy space vector
         * is computed before any pop), then the grants apply. */
        for (i64 k = 0; k < nw; k++) {
            i64 node = w_node[k];
            i64 down = neighbor[node * p + op];
            i64 dport = reverse[node * p + op];
            w_down[k] = down;
            w_dport[k] = dport;
            grant[k] = (buf_count[down * pp + dport]
                        + reserved[down * p + dport] < bufcap)
                       && link_up[node * p + op];
        }
        for (i64 k = 0; k < nw; k++) {
            if (!grant[k])
                continue;
            i64 node = w_node[k];
            i64 bi = node * pp + w_in[k];
            i64 m = buf_meta[bi * bufcap + buf_head[bi]];
            i64 b = buf_birth[bi * bufcap + buf_head[bi]];
            buf_head[bi] = (int32_t)((buf_head[bi] + 1) % bufcap);
            buf_count[bi] -= 1;
            ctr[CTR_BREADS] += 1;
            m += HOP_ONE;
            if (mark && congested[node])
                m |= CBIT;
            i64 slot = (cur + lat_out[node * p + op] - 1) % depth;
            i64 idx = w_down[k] * p + w_dport[k];
            ring_meta[slot * np + idx] = m;
            ring_birth[slot * np + idx] = b;
            reserved[w_down[k] * p + w_dport[k]] += 1;
            ctr[CTR_HOPS] += 1;
        }
    }

    /* Injection through the NI input buffer.  The winner scratch is
     * free again once the out-port loop is done. */
    unsigned char *capacity = (unsigned char *)pt[PT_W_NODE];
    for (i64 node = 0; node < n; node++)
        capacity[node] = buf_count[node * pp + p] < bufcap;
    injection_stage(pt, cfg, ctr, cycle, capacity, 1, (unsigned char *)0);

    /* Occupancy integral: flits held in buffers after this cycle. */
    i64 occ = 0;
    for (i64 bi = 0; bi < n * pp; bi++)
        occ += buf_count[bi];
    ctr[CTR_OCC] += occ;
}

/* ------------------------------------------------------------------ */
/* Behavior phase (ApplicationBehaviorArray.tick)                      */
/* ------------------------------------------------------------------ */
/* Every phase timer counts down; the expired nodes then draw all their
 * mean-one lognormal multipliers, then all their geometric phase
 * lengths, from the "phases" stream. */
static void behavior_tick(void **pt, const i64 *cfg)
{
    const double *f = (const double *)pt[PT_FCFG];
    if (f[FCFG_PHASE_SIGMA] <= 0.0)
        return;
    bitgen_t *rng = (bitgen_t *)pt[PT_RNG_PHASE];
    i64 *timer = (i64 *)pt[PT_BH_TIMER];
    double *mult = (double *)pt[PT_BH_MULT];
    i64 *expired = (i64 *)pt[PT_EXPIRED];
    i64 m = 0;
    for (i64 node = 0; node < cfg[CFG_N]; node++)
        if (--timer[node] <= 0)
            expired[m++] = node;
    for (i64 i = 0; i < m; i++)
        mult[expired[i]] = random_lognormal(rng, f[FCFG_PHASE_MU],
                                            f[FCFG_PHASE_SIGMA]);
    for (i64 i = 0; i < m; i++)
        timer[expired[i]] = random_geometric(rng, f[FCFG_PHASE_P]);
}

/* ------------------------------------------------------------------ */
/* Miss destinations (repro.traffic.locality samplers)                 */
/* ------------------------------------------------------------------ */
/* Reflect an out-of-range grid coordinate back into [0, limit]
 * (locality._fold, per element). */
static inline i64 fold(i64 c, i64 limit)
{
    c = c < 0 ? -c : c;
    for (int r = 0; r < 2 && c > limit; r++) {
        c = 2 * limit - c;
        c = c < 0 ? -c : c;
    }
    return c > limit ? limit : c;
}

static inline i64 floor_mod(i64 a, i64 m)
{
    i64 r = a % m;
    return r < 0 ? r + m : r;
}

/* Destinations for the k missers in PT_MISS_OUT, written to
 * PT_ISSUE_DEST.  Each numpy array draw of the reference becomes one
 * pass here, so the "destinations" stream is consumed in the same
 * order: all distances, then (grid) all axis splits and both sign
 * vectors, or (graph) all bucket picks. */
static void sample_destinations(void **pt, const i64 *cfg, i64 k)
{
    const i64 *src = (const i64 *)pt[PT_MISS_OUT];
    i64 *dest = (i64 *)pt[PT_ISSUE_DEST];
    bitgen_t *rng = (bitgen_t *)pt[PT_RNG_DEST];
    i64 n = cfg[CFG_N];
    i64 *d = (i64 *)pt[PT_DRAW_D];

    if (cfg[CFG_LOC_KIND] == LOC_UNIFORM) {
        /* UniformStriping: integers(1, n, size=k) */
        random_bounded_uint64_fill(rng, 1, (uint64_t)(n - 2), k, false,
                                   (uint64_t *)d);
        for (i64 i = 0; i < k; i++)
            dest[i] = (src[i] + d[i]) % n;
        return;
    }

    double param = ((const double *)pt[PT_FCFG])[FCFG_LOC_PARAM];
    for (i64 i = 0; i < k; i++) {
        if (cfg[CFG_LOC_KIND] == LOC_EXPONENTIAL) {
            /* rint(exponential(mean)), at least 1 */
            double x = rint(random_exponential(rng, param));
            d[i] = (i64)(x < 1.0 ? 1.0 : x);
        } else {
            /* floor(pareto(alpha) + 1) */
            d[i] = (i64)floor(random_pareto(rng, param) + 1.0);
        }
    }

    if (!cfg[CFG_LOC_GRID]) {
        /* Graph topologies: a uniform node from the source's bucket at
         * the sampled distance, clipped to 1..ecc(src). */
        const int32_t *order = (const int32_t *)pt[PT_LOC_ORDER];
        const i64 *start = (const i64 *)pt[PT_LOC_START];
        const i64 *count = (const i64 *)pt[PT_LOC_COUNT];
        const i64 *ecc = (const i64 *)pt[PT_LOC_ECC];
        i64 buckets = cfg[CFG_LOC_BUCKETS];
        for (i64 i = 0; i < k; i++) {
            i64 s = src[i];
            i64 di = d[i] < 1 ? 1 : d[i];
            di = di > ecc[s] ? ecc[s] : di;
            i64 b = s * buckets + di;
            i64 pick = start[b] + (i64)random_bounded_uint64(
                rng, 0, (uint64_t)(count[b] - 1), 0, false);
            dest[i] = order[s * n + pick];
        }
        return;
    }

    /* 2D grids: split the distance across the axes, pick random signs,
     * wrap (torus) or fold (mesh) at the edges. */
    i64 *a = (i64 *)pt[PT_DRAW_A];
    i64 *sx = (i64 *)pt[PT_DRAW_SX];
    i64 *sy = (i64 *)pt[PT_DRAW_SY];
    const int32_t *cx = (const int32_t *)pt[PT_LOC_X];
    const int32_t *cy = (const int32_t *)pt[PT_LOC_Y];
    i64 w = cfg[CFG_WIDTH], h = cfg[CFG_HEIGHT], maxd = cfg[CFG_MAX_DIST];
    for (i64 i = 0; i < k; i++) {
        d[i] = d[i] < 1 ? 1 : (d[i] > maxd ? maxd : d[i]);
        a[i] = (i64)random_bounded_uint64(rng, 0, (uint64_t)d[i], 0, false);
    }
    random_bounded_uint64_fill(rng, 0, 1, k, false, (uint64_t *)sx);
    random_bounded_uint64_fill(rng, 0, 1, k, false, (uint64_t *)sy);
    for (i64 i = 0; i < k; i++) {
        i64 s = src[i];
        i64 x = cx[s] + (sx[i] * 2 - 1) * a[i];
        i64 y = cy[s] + (sy[i] * 2 - 1) * (d[i] - a[i]);
        if (cfg[CFG_WRAPS]) {
            x = floor_mod(x, w);
            y = floor_mod(y, h);
        } else {
            x = fold(x, w - 1);
            y = fold(y, h - 1);
        }
        i64 t = y * w + x;
        /* Edge folding can land back on the source; nudge one hop. */
        if (t == s)
            t += cx[t] < w - 1 ? 1 : -1;
        dest[i] = t;
    }
}

/* ------------------------------------------------------------------ */
/* Core phase (CoreArray.step)                                         */
/* ------------------------------------------------------------------ */
/* The miss tail (CoreArray._issue_misses): push one request per misser
 * in PT_MISS_OUT[:k] to PT_ISSUE_DEST, then draw the next miss gap of
 * each accepted node (ApplicationBehaviorArray.sample_gap) from the
 * "destinations" stream. */
static void issue_misses(void **pt, const i64 *cfg, i64 cycle, i64 k)
{
    i64 qcap = cfg[CFG_QCAP];
    i64 req_flits = cfg[CFG_REQ_FLITS];
    i64 *nodes = (i64 *)pt[PT_MISS_OUT];
    const i64 *dest = (const i64 *)pt[PT_ISSUE_DEST];
    int32_t *req_dest = (int32_t *)pt[PT_REQ_DEST];
    int8_t *req_kind = (int8_t *)pt[PT_REQ_KIND];
    int16_t *req_flit = (int16_t *)pt[PT_REQ_FLITS];
    i64 *req_stamp = (i64 *)pt[PT_REQ_STAMP];
    int16_t *req_seq = (int16_t *)pt[PT_REQ_SEQ];
    int32_t *req_head = (int32_t *)pt[PT_REQ_HEAD];
    int32_t *req_count = (int32_t *)pt[PT_REQ_COUNT];
    double *issue_pos = (double *)pt[PT_CO_ISSUE_POS];
    int16_t *recv = (int16_t *)pt[PT_CO_RECV];
    unsigned char *complete = (unsigned char *)pt[PT_CO_COMPLETE];
    i64 *issued = (i64 *)pt[PT_CO_ISSUED];
    i64 *misses = (i64 *)pt[PT_CO_MISSES];
    i64 *epoch_flits = (i64 *)pt[PT_CO_EPOCH_FLITS];
    const double *retired = (const double *)pt[PT_CO_RETIRED];

    /* Accepted nodes are compacted in place (a prefix-order subset). */
    i64 m = 0;
    for (i64 i = 0; i < k; i++) {
        i64 node = nodes[i];
        if (req_count[node] >= qcap)
            continue;  /* rejected: gap stays 0, backpressure stalls */
        i64 seq = issued[node] % SEQ_RING;
        i64 slot = (req_head[node] + req_count[node]) % qcap;
        i64 idx = node * qcap + slot;
        req_dest[idx] = (int32_t)dest[i];
        req_kind[idx] = KIND_REQUEST;
        req_flit[idx] = (int16_t)req_flits;
        req_stamp[idx] = cycle;
        req_seq[idx] = (int16_t)seq;
        req_count[node] += 1;
        i64 ring = node * SEQ_RING + seq;
        issue_pos[ring] = retired[node];
        recv[ring] = 0;
        complete[ring] = 0;
        issued[node] += 1;
        misses[node] += 1;
        epoch_flits[node] += req_flits + cfg[CFG_REPLY_FLITS];
        nodes[m++] = node;
    }

    bitgen_t *rng = (bitgen_t *)pt[PT_RNG_DEST];
    const double *mu = (const double *)pt[PT_BH_MU];
    const double *sigma = (const double *)pt[PT_BH_SIGMA];
    const double *mult = (const double *)pt[PT_BH_MULT];
    double fpm = ((const double *)pt[PT_FCFG])[FCFG_FLITS_PER_MISS];
    double *gap = (double *)pt[PT_CO_GAP];
    for (i64 i = 0; i < m; i++) {
        i64 node = nodes[i];
        double g = random_lognormal(rng, mu[node], sigma[node]) * mult[node]
                   * fpm;
        gap[node] = g < 1.0 ? 1.0 : g;
    }
}

static void cores_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    i64 n = cfg[CFG_N];
    const unsigned char *active = (const unsigned char *)pt[PT_CO_ACTIVE];
    double *retired = (double *)pt[PT_CO_RETIRED];
    const double *issue_pos = (const double *)pt[PT_CO_ISSUE_POS];
    const unsigned char *complete = (const unsigned char *)pt[PT_CO_COMPLETE];
    const i64 *issued = (const i64 *)pt[PT_CO_ISSUED];
    const i64 *completed = (const i64 *)pt[PT_CO_COMPLETED];
    i64 *head = (i64 *)pt[PT_CO_HEAD];
    double *gap = (double *)pt[PT_CO_GAP];
    double *epoch_insns = (double *)pt[PT_CO_EPOCH_INSNS];
    i64 *stall = (i64 *)pt[PT_CO_STALL];
    i64 *wstall = (i64 *)pt[PT_CO_WSTALL];
    i64 *miss_out = (i64 *)pt[PT_MISS_OUT];
    const int32_t *req_count = (const int32_t *)pt[PT_REQ_COUNT];
    i64 qcap = cfg[CFG_QCAP];
    double iw = (double)cfg[CFG_ISSUE_W];
    double ws = (double)cfg[CFG_WINDOW];
    i64 mshr = cfg[CFG_MSHR];

    /* Bounded head sweep: up to 4 rounds; the dirty flag clears only
     * when a round advances no node (the numpy early-break). */
    if (ctr[CTR_HEAD_DIRTY]) {
        for (int round = 0; round < 4; round++) {
            int any = 0;
            for (i64 node = 0; node < n; node++) {
                if (head[node] < issued[node]
                    && complete[node * SEQ_RING + head[node] % SEQ_RING]) {
                    head[node] += 1;
                    any = 1;
                }
            }
            if (!any) {
                ctr[CTR_HEAD_DIRTY] = 0;
                break;
            }
        }
    }

    i64 miss = 0;
    for (i64 node = 0; node < n; node++) {
        i64 outstanding = issued[node] - completed[node];
        int has_inflight = head[node] < issued[node];
        double wr = INFINITY;
        if (has_inflight)
            wr = (issue_pos[node * SEQ_RING + head[node] % SEQ_RING] + ws)
                 - retired[node];
        int stalled = (outstanding >= mshr) || (req_count[node] >= qcap)
                      || (wr <= 0.0);
        int run = active[node] && !stalled;
        stall[node] += active[node] && stalled;
        wstall[node] += active[node] && (wr <= 0.0);
        double adv = 0.0;
        if (run) {
            double g = gap[node] > 0.0 ? gap[node] : 0.0;
            double m = g < wr ? g : wr;
            adv = iw < m ? iw : m;
        }
        retired[node] += adv;
        epoch_insns[node] += adv;
        gap[node] -= adv;
        if (run && gap[node] <= 0.0)
            miss_out[miss++] = node;
    }
    if (miss) {
        sample_destinations(pt, cfg, miss);
        issue_misses(pt, cfg, cycle, miss);
    }
}
/* ------------------------------------------------------------------ */
/* Memory phase (MemorySystem.step)                                    */
/* ------------------------------------------------------------------ */
static void memory_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    i64 L = cfg[CFG_L2_LAT], cap = cfg[CFG_EJ_CAP], pcap = cfg[CFG_PEND_CAP];
    i64 qcap = cfg[CFG_QCAP];
    i64 *mem_srv = (i64 *)pt[PT_MEM_SRV];
    i64 *mem_req = (i64 *)pt[PT_MEM_REQ];
    i64 *mem_seq = (i64 *)pt[PT_MEM_SEQ];
    i64 *mem_cnt = (i64 *)pt[PT_MEM_CNT];
    i64 *pend_s = (i64 *)pt[PT_PEND_S];
    i64 *pend_r = (i64 *)pt[PT_PEND_R];
    i64 *pend_q = (i64 *)pt[PT_PEND_Q];
    i64 *scr_s = (i64 *)pt[PT_SCR_S];
    i64 *scr_r = (i64 *)pt[PT_SCR_R];
    i64 *scr_q = (i64 *)pt[PT_SCR_Q];
    unsigned char *seen = (unsigned char *)pt[PT_VISITED];
    int32_t *resp_dest = (int32_t *)pt[PT_RESP_DEST];
    int8_t *resp_kind = (int8_t *)pt[PT_RESP_KIND];
    int16_t *resp_flits = (int16_t *)pt[PT_RESP_FLITS];
    i64 *resp_stamp = (i64 *)pt[PT_RESP_STAMP];
    int16_t *resp_seq = (int16_t *)pt[PT_RESP_SEQ];
    int32_t *resp_head = (int32_t *)pt[PT_RESP_HEAD];
    int32_t *resp_count = (int32_t *)pt[PT_RESP_COUNT];

    i64 mcur = ctr[CTR_MEM_CURSOR];
    i64 due_cnt = mem_cnt[mcur];
    i64 due_base = mcur * cap;
    i64 pend = ctr[CTR_PEND_CNT];
    mem_cnt[mcur] = 0;
    ctr[CTR_MEM_CURSOR] = (mcur + 1) % L;
    if (due_cnt == 0 && pend == 0)
        return;
    i64 total = pend + due_cnt;

    /* Combined order: retries first, then the due batch.  One reply per
     * server per cycle: the first occurrence attempts the enqueue;
     * failures then leftovers (in order) become the new retry list. */
    i64 nf = 0, nl = 0;
    for (i64 i = 0; i < total; i++) {
        i64 s, r, q;
        if (i < pend) {
            s = pend_s[i]; r = pend_r[i]; q = pend_q[i];
        } else {
            s = mem_srv[due_base + i - pend];
            r = mem_req[due_base + i - pend];
            q = mem_seq[due_base + i - pend];
        }
        if (!seen[s]) {
            seen[s] = 1;
            if (resp_count[s] < qcap) {
                i64 slot = (resp_head[s] + resp_count[s]) % qcap;
                i64 idx = s * qcap + slot;
                resp_dest[idx] = (int32_t)r;
                resp_kind[idx] = KIND_REPLY;
                resp_flits[idx] = (int16_t)cfg[CFG_REPLY_FLITS];
                resp_stamp[idx] = cycle;
                resp_seq[idx] = (int16_t)q;
                resp_count[s] += 1;
                ctr[CTR_REP_ISSUED] += 1;
            } else {
                scr_s[nf] = s; scr_r[nf] = r; scr_q[nf] = q;
                nf++;
            }
        } else {
            scr_s[pcap + nl] = s; scr_r[pcap + nl] = r; scr_q[pcap + nl] = q;
            nl++;
        }
    }
    for (i64 i = 0; i < total; i++) {
        i64 s = i < pend ? pend_s[i] : mem_srv[due_base + i - pend];
        seen[s] = 0;
    }
    if (nf + nl > pcap) {
        ctr[CTR_ERROR] = ERR_PENDING_OVERFLOW;
        return;
    }
    memcpy(pend_s, scr_s, (size_t)nf * sizeof(i64));
    memcpy(pend_r, scr_r, (size_t)nf * sizeof(i64));
    memcpy(pend_q, scr_q, (size_t)nf * sizeof(i64));
    memcpy(pend_s + nf, scr_s + pcap, (size_t)nl * sizeof(i64));
    memcpy(pend_r + nf, scr_r + pcap, (size_t)nl * sizeof(i64));
    memcpy(pend_q + nf, scr_q + pcap, (size_t)nl * sizeof(i64));
    ctr[CTR_PEND_CNT] = nf + nl;
}

/* ------------------------------------------------------------------ */
/* Ejection phase (Simulator._ejection_phase consumers)                */
/* ------------------------------------------------------------------ */
static void eject_phase(void **pt, const i64 *cfg, i64 *ctr)
{
    i64 k = ctr[CTR_EJ_COUNT];
    if (k == 0)
        return;
    const i64 *ej_node = (const i64 *)pt[PT_EJ_NODE];
    const i64 *ej_src = (const i64 *)pt[PT_EJ_SRC];
    const i64 *ej_kind = (const i64 *)pt[PT_EJ_KIND];
    const i64 *ej_seq = (const i64 *)pt[PT_EJ_SEQ];

    /* Request flits enter L2 service (MemorySystem.on_requests): the
     * whole cycle's batch lands l2_latency - 1 slots ahead. */
    i64 L = cfg[CFG_L2_LAT];
    i64 slot = (ctr[CTR_MEM_CURSOR] + L - 1) % L;
    i64 *mem_cnt = (i64 *)pt[PT_MEM_CNT];
    i64 cnt = mem_cnt[slot];
    i64 base = slot * cfg[CFG_EJ_CAP];
    i64 *mem_srv = (i64 *)pt[PT_MEM_SRV];
    i64 *mem_req = (i64 *)pt[PT_MEM_REQ];
    i64 *mem_seq = (i64 *)pt[PT_MEM_SEQ];
    for (i64 i = 0; i < k; i++) {
        if (ej_kind[i] != KIND_REQUEST)
            continue;
        if (cnt >= cfg[CFG_EJ_CAP]) {
            ctr[CTR_ERROR] = ERR_MEM_RING_OVERFLOW;
            return;
        }
        mem_srv[base + cnt] = ej_node[i];
        mem_req[base + cnt] = ej_src[i];
        mem_seq[base + cnt] = ej_seq[i];
        cnt++;
        ctr[CTR_REQ_SERVICED] += 1;
    }
    mem_cnt[slot] = cnt;

    /* Reply flits complete core misses (CoreArray.on_reply_flits):
     * first accumulate every flit, then resolve each distinct
     * (node, seq) pair once. */
    int16_t *recv = (int16_t *)pt[PT_CO_RECV];
    unsigned char *complete = (unsigned char *)pt[PT_CO_COMPLETE];
    i64 *completed = (i64 *)pt[PT_CO_COMPLETED];
    unsigned char *visited = (unsigned char *)pt[PT_VISITED];
    i64 reply_flits = cfg[CFG_REPLY_FLITS];
    int dirty = 0;
    for (i64 i = 0; i < k; i++)
        if (ej_kind[i] == KIND_REPLY)
            recv[ej_node[i] * SEQ_RING + ej_seq[i]] += 1;
    for (i64 i = 0; i < k; i++) {
        if (ej_kind[i] != KIND_REPLY)
            continue;
        i64 idx = ej_node[i] * SEQ_RING + ej_seq[i];
        if (visited[idx])
            continue;
        visited[idx] = 1;
        if (recv[idx] >= reply_flits && !complete[idx]) {
            complete[idx] = 1;
            completed[ej_node[i]] += 1;
            dirty = 1;
        }
    }
    for (i64 i = 0; i < k; i++)
        if (ej_kind[i] == KIND_REPLY)
            visited[ej_node[i] * SEQ_RING + ej_seq[i]] = 0;
    if (dirty)
        ctr[CTR_HEAD_DIRTY] = 1;
}

/* ------------------------------------------------------------------ */
/* Network phase (RouterEngine.step)                                   */
/* ------------------------------------------------------------------ */
static void network_phase(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    int buffered = cfg[CFG_BUFFERED] != 0;
    if (cfg[CFG_ARB] == ARB_RANDOM) {
        /* RandomArbitration: integers(0, KEY_MAX, size=grid) from the
         * "arbitration" stream, one fresh grid per cycle. */
        i64 n = cfg[CFG_N], cols = cfg[CFG_P] + buffered;
        random_bounded_uint64_fill((bitgen_t *)pt[PT_RNG_ARB], 0,
                                   (uint64_t)(KEY_MAX - 1), n * cols, false,
                                   (uint64_t *)pt[buffered ? PT_H_KEY
                                                           : PT_G_KEY]);
    }
    if (buffered)
        credit_step(pt, cfg, ctr, cycle);
    else
        bless_step(pt, cfg, ctr, cycle);
}

/* ------------------------------------------------------------------ */
/* The cycle loop                                                      */
/* ------------------------------------------------------------------ */
static inline i64 now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (i64)ts.tv_sec * 1000000000LL + (i64)ts.tv_nsec;
}

/* With cfg[CFG_PROFILE] set, charge the time since the last lap to a
 * CTR_NS_* slot (PhaseTimer's attribution; never read by the model). */
#define LAP(slot)                                                       \
    do {                                                                \
        if (profile) {                                                  \
            i64 t_ = now_ns();                                          \
            ctr[slot] += t_ - mark;                                     \
            mark = t_;                                                  \
        }                                                               \
    } while (0)

/* Run cycles [cycle, cycle + ncycles): behavior -> cores -> memory ->
 * network -> ejection, the reference pipeline's per-cycle order.  The
 * epoch phase stays in Python, so a segment never crosses an epoch
 * boundary.  Afterwards PT_EJ_* holds the last cycle's ejected flits.
 * Stops at the first error (ctr[CTR_ERROR]). */
void noc_run(void **pt, const i64 *cfg, i64 *ctr, i64 cycle, i64 ncycles)
{
    if (!check_abi(cfg, ctr))
        return;
    int profile = cfg[CFG_PROFILE] != 0;
    i64 mark = profile ? now_ns() : 0;
    for (i64 c = cycle; c < cycle + ncycles; c++) {
        behavior_tick(pt, cfg);
        LAP(CTR_NS_BEHAVIOR);
        cores_phase(pt, cfg, ctr, c);
        LAP(CTR_NS_CORES);
        memory_phase(pt, cfg, ctr, c);
        LAP(CTR_NS_MEMORY);
        if (ctr[CTR_ERROR])
            return;
        network_phase(pt, cfg, ctr, c);
        LAP(CTR_NS_NETWORK);
        if (ctr[CTR_ERROR])
            return;
        eject_phase(pt, cfg, ctr);
        LAP(CTR_NS_EJECTION);
        if (ctr[CTR_ERROR])
            return;
    }
}
