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
 *
 * NETWORK: the FLIT-BLESS step is one pass over routers.  Each router
 * sorts its arrivals by arbitration key, ejects, allocates output
 * ports, admits one NI flit and writes every departing flit straight
 * into the link ring; the reference's whole-grid stages (keys,
 * ejection rounds, rank-by-rank allocation, injection, send) are
 * per-router independent, so the fused order gives the same result.
 * The credit (buffered) step stays out-port-major: its two-phase
 * grants read neighbouring routers' buffers mid-iteration.
 */

/* clock_gettime and CLOCK_MONOTONIC under a strict -std=c11. */
#define _POSIX_C_SOURCE 199309L

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
 * slots may be added, removed or reordered here alone (queue_view
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
    X(PT_G_META) X(PT_G_BIRTH) X(PT_KEY) X(PT_H_OUT) X(PT_W_NODE)       \
    X(PT_W_IN) X(PT_W_DOWN) X(PT_W_DPORT) X(PT_W_GRANT)                 \
    X(PT_BUF_META) X(PT_BUF_BIRTH) X(PT_BUF_HEAD) X(PT_BUF_COUNT)       \
    X(PT_RESERVED)                                                      \
    X(PT_EJ_NODE) X(PT_EJ_SRC) X(PT_EJ_KIND) X(PT_EJ_SEQ) X(PT_EJ_CBIT) \
    X(PT_EJ_LATER)                                                      \
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

/* A network step's delivered flits: the PT_EJ_* batch plus the
 * delivery statistics, summed in locals and stored to ctr once per step
 * (RouterEngine.account_ejections). */
struct ejector {
    i64 *node, *src, *kind, *seq, *hist;
    unsigned char *cbit;
    i64 count, cap, flits, lat_sum, lat_max, hops_sum;
};

static inline struct ejector ejector_begin(void **pt, const i64 *cfg,
                                           const i64 *ctr)
{
    struct ejector e = {
        .node = pt[PT_EJ_NODE], .src = pt[PT_EJ_SRC],
        .kind = pt[PT_EJ_KIND], .seq = pt[PT_EJ_SEQ],
        .hist = pt[PT_LAT_HIST], .cbit = pt[PT_EJ_CBIT],
        .cap = cfg[CFG_EJ_CAP], .lat_max = ctr[CTR_LAT_MAX],
    };
    return e;
}

static inline void account_ejection(struct ejector *e, i64 meta, i64 lat)
{
    e->flits += 1;
    e->lat_sum += lat;
    if (lat > e->lat_max)
        e->lat_max = lat;
    e->hist[lat > HIST_BUCKETS - 1 ? HIST_BUCKETS - 1 : lat] += 1;
    e->hops_sum += (meta >> HOPS_SHIFT) & HOPS_MASK;
}

/* Append one flit to the PT_EJ_* batch; 0 (and ctr's error set by the
 * caller) when the batch is full. */
static inline int emit_ejected(struct ejector *e, i64 node, i64 meta)
{
    i64 k = e->count;
    if (k >= e->cap)
        return 0;
    e->node[k] = node;
    e->src[k] = (meta >> SRC_SHIFT) & NODE_MASK;
    e->kind[k] = (meta >> KIND_SHIFT) & 0x3;
    e->seq[k] = (meta >> SEQ_SHIFT) & SEQ_MASK;
    e->cbit[k] = (unsigned char)((meta >> 30) & 0x1);
    e->count = k + 1;
    return 1;
}

static inline void ejector_end(const struct ejector *e, i64 *ctr)
{
    ctr[CTR_EJ_COUNT] = e->count;
    ctr[CTR_EJ_FLITS] += e->flits;
    ctr[CTR_LAT_SUM] += e->lat_sum;
    ctr[CTR_LAT_CNT] += e->flits;
    ctr[CTR_LAT_MAX] = e->lat_max;
    ctr[CTR_HOPS_SUM] += e->hops_sum;
}

/* One FlitQueueArray (repro.network.queues): its seven consecutive
 * pointer-table slots, each a per-node ring of `cap` packet entries. */
struct queue {
    int32_t *dest;
    int8_t *kind;
    int16_t *flits;
    i64 *stamp;
    int16_t *seq;
    int32_t *head, *count;
    i64 cap;
};

static inline struct queue queue_view(void **pt, int base, i64 cap)
{
    struct queue q = {
        pt[base], pt[base + 1], pt[base + 2], pt[base + 3], pt[base + 4],
        pt[base + 5], pt[base + 6], cap,
    };
    return q;
}

/* Append a packet at `node` (the caller checked count < cap). */
static inline void queue_push(const struct queue *q, i64 node, i64 dest,
                              int kind, i64 flits, i64 stamp, i64 seq)
{
    i64 slot = q->head[node] + q->count[node];
    if (slot >= q->cap)
        slot -= q->cap;
    i64 idx = node * q->cap + slot;
    q->dest[idx] = (int32_t)dest;
    q->kind[idx] = (int8_t)kind;
    q->flits[idx] = (int16_t)flits;
    q->stamp[idx] = stamp;
    q->seq[idx] = (int16_t)seq;
    q->count[node] += 1;
}

/* Take one flit from the head packet at `node`
 * (FlitQueueArray.take_flit): returns its meta word, zero hops, and
 * stores the packet's enqueue stamp. */
static inline i64 queue_take(const struct queue *q, i64 node, i64 *stamp)
{
    i64 h = q->head[node];
    i64 idx = node * q->cap + h;
    *stamp = q->stamp[idx];
    i64 meta = (i64)q->dest[idx] | (node << SRC_SHIFT)
               | ((i64)q->kind[idx] << KIND_SHIFT)
               | ((i64)q->seq[idx] << SEQ_SHIFT);
    q->flits[idx] -= 1;
    if (q->flits[idx] == 0) {
        q->head[node] = (int32_t)(h + 1 == q->cap ? 0 : h + 1);
        q->count[node] -= 1;
    }
    return meta;
}

/* NI admission state shared by both flow controls
 * (RouterEngine.injection_stage + InjectionThrottleGate.decide +
 * NocModel._record_starvation). */
struct ni {
    struct queue req, resp;
    int32_t *thr_counter, *starv_sum;
    const double *thr_rate;
    unsigned char *starv_col;  /* this cycle's W-bit ring column */
    i64 *inj_per_node, *starved_cyc, *port_starved;
    i64 sw, injected;
};

static inline struct ni ni_begin(void **pt, const i64 *cfg, const i64 *ctr)
{
    i64 qcap = cfg[CFG_QCAP];
    struct ni ni = {
        .req = queue_view(pt, PT_REQ_DEST, qcap),
        .resp = queue_view(pt, PT_RESP_DEST, qcap),
        .thr_counter = pt[PT_THR_COUNTER], .starv_sum = pt[PT_STARV_SUM],
        .thr_rate = pt[PT_THR_RATE],
        .starv_col = (unsigned char *)pt[PT_STARV_RING] + ctr[CTR_SPOS],
        .inj_per_node = pt[PT_INJ_PER_NODE],
        .starved_cyc = pt[PT_STARVED_CYC],
        .port_starved = pt[PT_PORT_STARVED_CYC],
        .sw = cfg[CFG_SW],
    };
    return ni;
}

/* Admission at one node whose NI has room iff `cap`: its response
 * queue first, else its request queue through the Algorithm-3 throttle
 * counter; updates the starvation meter.  Returns the queue to inject
 * one flit from, or NULL. */
static inline const struct queue *ni_admit(struct ni *ni, i64 node, int cap)
{
    int resp_has = ni->resp.count[node] > 0;
    int req_has = ni->req.count[node] > 0;
    const struct queue *q = NULL;
    if (cap && resp_has) {
        q = &ni->resp;
    } else if (cap && req_has) {
        /* Algorithm 3: the counter advances on every attempt. */
        int32_t c = (int32_t)((ni->thr_counter[node] + 1) % 128);
        ni->thr_counter[node] = c;
        if ((double)c >= ni->thr_rate[node] * THROTTLE_MAX)
            q = &ni->req;
    }
    int wanted = resp_has || req_has;
    int starved = wanted && q == NULL;
    unsigned char *bit = ni->starv_col + node * ni->sw;
    ni->starv_sum[node] += (int32_t)starved - (int32_t)*bit;
    *bit = (unsigned char)starved;
    ni->starved_cyc[node] += starved;
    ni->port_starved[node] += wanted && !cap;
    if (q) {
        ni->inj_per_node[node] += 1;
        ni->injected += 1;
    }
    return q;
}

static inline void ni_end(const struct ni *ni, i64 *ctr)
{
    ctr[CTR_INJ] += ni->injected;
    i64 spos = ctr[CTR_SPOS] + 1;
    ctr[CTR_SPOS] = spos == ni->sw ? 0 : spos;
    ctr[CTR_SSEEN] += 1;
}

/* The link ring's send side for one step: a flit leaving through flat
 * link `s` (node * p + out port) is written lat_out[s] - 1 slots past
 * the advanced cursor, at the far end's arrival slot target[s]. */
struct ring {
    i64 *meta, *birth;
    const i64 *lat_out, *target;
    i64 np, depth, cur;
};

static inline void ring_send(const struct ring *r, i64 s, i64 meta,
                             i64 birth)
{
    /* cur < depth and lat_out <= depth: one subtract wraps the slot. */
    i64 slot = r->cur + r->lat_out[s] - 1;
    if (slot >= r->depth)
        slot -= r->depth;
    i64 at = slot * r->np + r->target[s];
    r->meta[at] = meta;
    r->birth[at] = birth;
}

/* The productive port of a flit whose router's free links are the set
 * bits of `free`, else the other productive direction, else -1. */
static inline int productive_port(uint64_t free, int p0, int p1)
{
    if (p0 >= 0 && ((free >> p0) & 1))
        return p0;
    if (p1 >= 0 && ((free >> p1) & 1))
        return p1;
    return -1;
}

/* The first free link (np.argmax over the free row: 0 when none). */
static inline int first_free(uint64_t free)
{
    return free ? __builtin_ctzll(free) : 0;
}

/* ------------------------------------------------------------------ */
/* FLIT-BLESS network step (DeflectFlowControl.step)                   */
/* ------------------------------------------------------------------ */
/* One pass over routers.  Each router stable-sorts its arrivals by
 * key, ejects the first eject_width local ones, gives the rest their
 * productive port or deflects them to the first free link, admits one
 * NI flit onto what is left and sends every departing flit into the
 * ring.  The reference does each stage for all routers before the
 * next, but every stage reads and writes only its own router's row, so
 * the per-router order is equivalent; only the ejection batch order
 * (round-major, node-ascending, the numpy ej_parts concatenation) needs
 * the rounds past the first held back in PT_EJ_LATER. */
static void bless_step(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    const i64 n = cfg[CFG_N], p = cfg[CFG_P], depth = cfg[CFG_DEPTH];
    const i64 np = n * p, ew = cfg[CFG_EJECT_W], arb = cfg[CFG_ARB];
    i64 *restrict ring_meta = pt[PT_RING_META];
    i64 *restrict ring_birth = pt[PT_RING_BIRTH];
    i64 *restrict gmeta = pt[PT_G_META];
    i64 *restrict gbirth = pt[PT_G_BIRTH];
    const i64 *restrict rkey = pt[PT_KEY];
    i64 *restrict later = pt[PT_EJ_LATER];
    const signed char *restrict p0tab = pt[PT_P0TAB];
    const signed char *restrict p1tab = pt[PT_P1TAB];
    const unsigned char *restrict link_up = pt[PT_LINK_UP];
    const unsigned char *restrict congested = pt[PT_CONGESTED];
    struct ejector ej = ejector_begin(pt, cfg, ctr);
    struct ni ni = ni_begin(pt, cfg, ctr);
    i64 sent = 0, defl = 0, injlat = 0, held = 0;

    /* Arrivals: copy the ring's arrival slot, clear it, advance.  (A
     * link as slow as the ring is deep sends into that slot again.) */
    i64 cur = ctr[CTR_CURSOR];
    memcpy(gmeta, ring_meta + cur * np, (size_t)np * sizeof(i64));
    memcpy(gbirth, ring_birth + cur * np, (size_t)np * sizeof(i64));
    memset(ring_birth + cur * np, 0xFF, (size_t)np * sizeof(i64));
    if (++cur == depth)
        cur = 0;
    ctr[CTR_CURSOR] = cur;
    const struct ring ring = {
        ring_meta, ring_birth, pt[PT_LAT_OUT], pt[PT_TARGET_FLAT],
        np, depth, cur,
    };

    for (i64 node = 0; node < n; node++) {
        const i64 base = node * p;
        const signed char *p0row = p0tab + node * n;
        const signed char *p1row = p1tab + node * n;
        const i64 cbit = congested[node] ? CBIT : 0;

        /* Occupied input slots by key; the stable insertion keeps
         * column order on ties, like kind="stable" argsort. */
        i64 key[MAX_PORTS];
        int col[MAX_PORTS], cnt = 0;
        uint64_t free = 0;
        for (int c = 0; c < p; c++) {
            free |= (uint64_t)(link_up[base + c] != 0) << c;
            i64 b = gbirth[base + c];
            if (b < 0)
                continue;
            i64 k;
            if (arb == ARB_RANDOM) {
                k = rkey[base + c];
            } else {
                k = (b << SRC_SHIFT) | ((gmeta[base + c] >> SRC_SHIFT)
                                        & NODE_MASK);
                k = arb == ARB_YOUNGEST ? -k : k;
            }
            int j = cnt++;
            for (; j > 0 && key[j - 1] > k; j--) {
                key[j] = key[j - 1];
                col[j] = col[j - 1];
            }
            key[j] = k;
            col[j] = c;
        }

        /* In key order: the first eject_width local flits eject (round
         * r = the r-th of them); the rest take a productive port or
         * deflect to the first free link. */
        int ejected = 0;
        for (int i = 0; i < cnt; i++) {
            const i64 s = base + col[i];
            const i64 m = gmeta[s], dest = m & NODE_MASK;
            if (dest == node && ejected < ew) {
                account_ejection(&ej, m, cycle - gbirth[s]);
                if (ejected == 0) {
                    if (!emit_ejected(&ej, node, m))
                        goto overflow;
                } else {
                    later[node * (ew - 1) + ejected - 1] = m;
                    held++;
                }
                ejected++;
                continue;
            }
            int port = productive_port(free, p0row[dest], p1row[dest]);
            if (port < 0) {
                port = first_free(free);
                defl++;
            }
            free &= ~((uint64_t)1 << port);
            ring_send(&ring, base + port, (m + HOP_ONE) | cbit, gbirth[s]);
            sent++;
        }

        /* NI: one response or throttled request onto a free link, routed
         * like any other flit (it lost arbitration to all of them). */
        const struct queue *q = ni_admit(&ni, node, free != 0);
        if (q) {
            i64 stamp, m = queue_take(q, node, &stamp);
            i64 dest = m & NODE_MASK;
            int port = productive_port(free, p0row[dest], p1row[dest]);
            if (port < 0)
                port = first_free(free);
            ring_send(&ring, base + port, (m + HOP_ONE) | cbit, cycle);
            sent++;
            injlat += cycle - stamp;
        }
    }

    /* Ejection rounds past the first, round-major and node-ascending;
     * each slot is reset to the -1 "empty" mark as it is emitted. */
    for (i64 r = 0; held && r < ew - 1; r++) {
        for (i64 node = 0; node < n; node++) {
            i64 *slot = later + node * (ew - 1) + r;
            if (*slot < 0)
                continue;
            if (!emit_ejected(&ej, node, *slot))
                goto overflow;
            *slot = -1;
            held--;
        }
    }

    ejector_end(&ej, ctr);
    ni_end(&ni, ctr);
    ctr[CTR_HOPS] += sent;
    ctr[CTR_DEFL] += defl;
    ctr[CTR_INJLAT_SUM] += injlat;
    ctr[CTR_INJLAT_CNT] += ni.injected;
    /* Bufferless: occupancy integral stays zero. */
    return;
overflow:
    ctr[CTR_ERROR] = ERR_EJECT_OVERFLOW;
}

/* ------------------------------------------------------------------ */
/* Buffered XY network step (CreditFlowControl.step)                   */
/* ------------------------------------------------------------------ */
/* The input FIFOs, one per (node, in port), p + 1 per node (the last
 * is the NI's). */
struct fifos {
    i64 *meta, *birth;
    int32_t *head, *count;
    i64 cap;
};

static inline void fifo_push(const struct fifos *f, i64 bi, i64 meta,
                             i64 birth)
{
    i64 slot = f->head[bi] + f->count[bi];
    if (slot >= f->cap)
        slot -= f->cap;
    f->meta[bi * f->cap + slot] = meta;
    f->birth[bi * f->cap + slot] = birth;
    f->count[bi] += 1;
}

static inline i64 fifo_pop(const struct fifos *f, i64 bi, i64 *birth)
{
    i64 h = f->head[bi];
    i64 meta = f->meta[bi * f->cap + h];
    *birth = f->birth[bi * f->cap + h];
    f->head[bi] = (int32_t)(h + 1 == f->cap ? 0 : h + 1);
    f->count[bi] -= 1;
    return meta;
}

/* Unlike bless_step this stays a sequence of whole-grid stages: an
 * out port's credit checks read the downstream routers' buffers as of
 * that out-port iteration, after the earlier iterations' grants. */
static void credit_step(void **pt, const i64 *cfg, i64 *ctr, i64 cycle)
{
    const i64 n = cfg[CFG_N], p = cfg[CFG_P], depth = cfg[CFG_DEPTH];
    const i64 pp = p + 1, np = n * p, arb = cfg[CFG_ARB];
    const struct fifos buf = {
        pt[PT_BUF_META], pt[PT_BUF_BIRTH], pt[PT_BUF_HEAD],
        pt[PT_BUF_COUNT], cfg[CFG_BUF_CAP],
    };
    i64 *restrict ring_meta = pt[PT_RING_META];
    i64 *restrict ring_birth = pt[PT_RING_BIRTH];
    int32_t *restrict reserved = pt[PT_RESERVED];
    i64 *restrict hkey = pt[PT_KEY];
    i64 *restrict hout = pt[PT_H_OUT];
    i64 *restrict w_node = pt[PT_W_NODE];
    i64 *restrict w_in = pt[PT_W_IN];
    i64 *restrict w_down = pt[PT_W_DOWN];
    i64 *restrict w_dport = pt[PT_W_DPORT];
    unsigned char *restrict grant = pt[PT_W_GRANT];
    const signed char *restrict p0tab = pt[PT_P0TAB];
    const unsigned char *restrict link_up = pt[PT_LINK_UP];
    const unsigned char *restrict congested = pt[PT_CONGESTED];
    const i64 *restrict neighbor = pt[PT_NEIGHBOR];
    const i64 *restrict reverse = pt[PT_REVERSE];
    struct ejector ej = ejector_begin(pt, cfg, ctr);
    struct ni ni = ni_begin(pt, cfg, ctr);
    i64 writes = 0, reads = 0, hops = 0;

    /* Link arrivals drain into the input buffers (row-major, matching
     * np.nonzero order); each flat slot is a unique (node, port). */
    i64 cur = ctr[CTR_CURSOR];
    i64 *arr_meta = ring_meta + cur * np, *arr_birth = ring_birth + cur * np;
    for (i64 node = 0, i = 0; node < n; node++) {
        for (i64 port = 0; port < p; port++, i++) {
            if (arr_birth[i] < 0)
                continue;
            fifo_push(&buf, node * pp + port, arr_meta[i], arr_birth[i]);
            reserved[i] -= 1;
            writes++;
            arr_birth[i] = -1;
        }
    }
    if (++cur == depth)
        cur = 0;
    ctr[CTR_CURSOR] = cur;
    const struct ring ring = {
        ring_meta, ring_birth, pt[PT_LAT_OUT], pt[PT_TARGET_FLAT],
        np, depth, cur,
    };

    /* Head-of-queue snapshot: key + output port per (node, in port),
     * computed once — pops during the out-port loop do NOT refresh it
     * (heads_into semantics).  hout -2 marks empty FIFOs. */
    for (i64 node = 0; node < n; node++) {
        for (i64 port = 0; port < pp; port++) {
            i64 bi = node * pp + port;
            if (buf.count[bi] <= 0) {
                hkey[bi] = KEY_MAX;
                hout[bi] = -2;
                continue;
            }
            i64 at = bi * buf.cap + buf.head[bi];
            i64 m = buf.meta[at];
            if (arb != ARB_RANDOM) {
                i64 k = (buf.birth[at] << SRC_SHIFT)
                        | ((m >> SRC_SHIFT) & NODE_MASK);
                hkey[bi] = arb == ARB_YOUNGEST ? -k : k;
            }
            int p0 = p0tab[node * n + (m & NODE_MASK)];
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
                i64 b, m = fifo_pop(&buf, node * pp + bc, &b);
                reads++;
                account_ejection(&ej, m, cycle - b);
                if (!emit_ejected(&ej, node, m)) {
                    ctr[CTR_ERROR] = ERR_EJECT_OVERFLOW;
                    return;
                }
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
            grant[k] = (buf.count[down * pp + dport]
                        + reserved[down * p + dport] < buf.cap)
                       && link_up[node * p + op];
        }
        for (i64 k = 0; k < nw; k++) {
            if (!grant[k])
                continue;
            i64 node = w_node[k];
            i64 b, m = fifo_pop(&buf, node * pp + w_in[k], &b);
            reads++;
            m += HOP_ONE;
            if (congested[node])
                m |= CBIT;
            /* target[node * p + op] is (w_down, w_dport) flattened. */
            ring_send(&ring, node * p + op, m, b);
            reserved[w_down[k] * p + w_dport[k]] += 1;
            hops++;
        }
    }

    /* Injection through the NI input buffer. */
    for (i64 node = 0; node < n; node++) {
        i64 bi = node * pp + p;
        const struct queue *q = ni_admit(&ni, node, buf.count[bi] < buf.cap);
        if (!q)
            continue;
        i64 stamp, m = queue_take(q, node, &stamp);
        fifo_push(&buf, bi, m, cycle);
        writes++;
    }

    /* Occupancy integral: flits held in buffers after this cycle. */
    i64 occ = 0;
    for (i64 bi = 0; bi < n * pp; bi++)
        occ += buf.count[bi];
    ctr[CTR_OCC] += occ;
    ejector_end(&ej, ctr);
    ni_end(&ni, ctr);
    ctr[CTR_BWRITES] += writes;
    ctr[CTR_BREADS] += reads;
    ctr[CTR_HOPS] += hops;
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
        for (i64 i = 0; i < k; i++) {
            i64 t = src[i] + d[i];  /* d in [1, n - 1] */
            dest[i] = t >= n ? t - n : t;
        }
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
    const struct queue req = queue_view(pt, PT_REQ_DEST, cfg[CFG_QCAP]);
    i64 req_flits = cfg[CFG_REQ_FLITS];
    i64 *nodes = (i64 *)pt[PT_MISS_OUT];
    const i64 *dest = (const i64 *)pt[PT_ISSUE_DEST];
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
        if (req.count[node] >= req.cap)
            continue;  /* rejected: gap stays 0, backpressure stalls */
        i64 seq = issued[node] % SEQ_RING;
        queue_push(&req, node, dest[i], KIND_REQUEST, req_flits, cycle, seq);
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
    const struct queue resp = queue_view(pt, PT_RESP_DEST, cfg[CFG_QCAP]);
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

    i64 mcur = ctr[CTR_MEM_CURSOR];
    i64 due_cnt = mem_cnt[mcur];
    i64 due_base = mcur * cap;
    i64 pend = ctr[CTR_PEND_CNT];
    mem_cnt[mcur] = 0;
    ctr[CTR_MEM_CURSOR] = mcur + 1 == L ? 0 : mcur + 1;
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
            if (resp.count[s] < resp.cap) {
                queue_push(&resp, s, r, KIND_REPLY, cfg[CFG_REPLY_FLITS],
                           cycle, q);
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
    i64 slot = ctr[CTR_MEM_CURSOR] + L - 1;
    if (slot >= L)
        slot -= L;
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
         * "arbitration" stream, one fresh (n, p [+ 1]) grid per cycle. */
        i64 n = cfg[CFG_N], cols = cfg[CFG_P] + buffered;
        random_bounded_uint64_fill((bitgen_t *)pt[PT_RNG_ARB], 0,
                                   (uint64_t)(KEY_MAX - 1), n * cols, false,
                                   (uint64_t *)pt[PT_KEY]);
    }
    ctr[CTR_CYCLES] += 1;
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
