/*
 * Chunk-serving kernel for the self-adjusting online algorithms, the bulk
 * random draws of the workloads and initial placements, and the one-pass
 * build of Move-Half's and Max-Push's initial LRU index.
 *
 * Each function serves a whole validated chunk of requests and computes
 * what its algorithm's Python reference ``_adjust`` does, fused into one
 * pass over flat buffers with the swap count in closed form: the three
 * deterministic cascades (Rotor-Push, Move-Half, Max-Push, the last two
 * with ``LevelLRUIndex.place`` and ``LevelLRUIndex._forget_never``),
 * Random-Push and Move-To-Front; ``static_serve`` serves both static trees.
 * The tests pin every buffer against a tree served through ``_adjust``.
 * State is built here from seeds for a tree that lives only in flat
 * buffers (see cascade_kernel.py); the never-accessed bitmaps are 64-bit
 * words, and each level's summary integer becomes an array of words holding
 * one bit per bitmap word.  Static-Opt on such a tree only counts requests
 * per element (``static_opt_count``) and takes its total from the sorted
 * counts (``static_opt_total``).  ``first_outside`` bounds-checks a chunk,
 * and ``source_elements`` maps a network source's destinations to its
 * tree's elements, checking them on the way.  ``seeded_tree`` draws such a
 * tree afresh in buffers that served the tree before it.
 *
 * Random-Push draws from a bit-exact port of CPython's Mersenne Twister
 * (``genrand_uint32`` in Modules/_randommodule.c); ``seeded_tree`` keys it
 * from the algorithm's int seed with ``mt_key`` (below), as
 * ``random.Random(seed)`` is keyed, so it draws exactly what the
 * reference draws.  ``randrange(n)`` follows
 * ``Random._randbelow_with_getrandbits``: ``getrandbits(n.bit_length())``
 * is the top ``n.bit_length()`` bits of one 32-bit word, redrawn while it
 * is at least ``n``.
 *
 * The same port also draws for the workloads and the initial placements
 * outside any chunk: ``randbelow_fill`` (``randrange(n)`` repeated),
 * ``random_fill`` (``random()``, CPython's ``genrand_res53``) and
 * ``shuffle_range`` (``shuffle(list(range(n)))``, on the stack generator
 * ``mt_local`` described below).  These bulk draws take
 * a ``random.Random``'s 624 state words and index from ``getstate`` and
 * hand them back for ``setstate``, so its Python stream continues exactly
 * as if the Python loop had drawn.
 *
 * ``mt_key`` keys the port from an int seed's 32-bit key words through
 * CPython's ``init_by_array``, with no ``random.Random`` object to copy
 * from or back to, starting from the seed-independent ``init_genrand``
 * words computed once at load.  Besides Random-Push's tree,
 * ``seeded_placement`` seeds the port this way: it draws a tree's initial
 * placement on a generator of its own stack (``mt_local``, which tempers
 * each twist's words in one block) and writes its inverse, checking the
 * bijection on the way.
 * ``repeat_fill`` runs the temporal repeat rule on ``random()`` draws made
 * as it goes, from the state or from raw words that ``getrandbits`` handed
 * over (``random_words_fill`` turns such words into the draws alone).  All
 * of this holds only while CPython keeps those algorithms, so the loader
 * compares every draw function with ``random.Random`` before it lets
 * Random-Push or any caller use them.
 *
 * ``pcg64_seed``, ``pcg64_random_fill`` and ``zipf_fill`` port
 * ``numpy.random.default_rng(seed)`` (SeedSequence and PCG64) for the Zipf
 * workloads; the loader compares them with NumPy.
 *
 * ``lru_build`` writes a seeded tree's fresh ``LevelLRUIndex`` in the
 * buffers that ``_lru_layout`` (cascade_kernel.py) describes, from
 * ``node_of`` alone, in O(n): every element starts never accessed, so each
 * level's list is in identifier order.
 *
 * Every chunk function returns the number of requests it served.  A served
 * count below the chunk length means the request at that index found a
 * level without an eligible element: ``error_level`` names the level, and
 * the state is left exactly as the Python port leaves it when it raises.
 *
 * Build: cc -O2 -shared -fPIC -o cascade_kernel.so cascade_kernel.c
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int64_t *elem_at;          /* node -> element */
    int64_t *node_of;          /* element -> node */
    int64_t *pointers;         /* Rotor-Push: rotor pointer per internal node */
    int64_t *next;             /* LRU links, n_elements + depth + 1 slots */
    int64_t *prev;
    int64_t *last_access;      /* stamps; -1 for never accessed (and sentinels) */
    int64_t *level_of;         /* element -> level, as the index sees it */
    uint64_t *never_words;     /* n_words words per level */
    uint64_t *never_summary;   /* n_summary words per level */
    uint32_t *mt;              /* Random-Push, draws: the Mersenne Twister's 624 words */
    int64_t *counts;           /* Static-Opt: requests per element */
    int64_t n_elements;
    int64_t n_words;
    int64_t n_summary;
    int64_t clock;
    int64_t mt_index;          /* Random-Push, draws: the index of the next word */
    int32_t *levels;           /* per-request level column, or NULL */
    int32_t *swaps;            /* per-request swap column, or NULL */
    int64_t access_total;
    int64_t adjustment_total;
    int64_t error_level;       /* -1, or the level of the failed request */
} serve_state;

/* Python's int.bit_length for non-negative values. */
static inline int64_t bit_length(uint64_t value)
{
    return value ? 64 - __builtin_clzll(value) : 0;
}

static inline void account(serve_state *s, int64_t index, int64_t level, int64_t swaps)
{
    s->access_total += level + 1;
    s->adjustment_total += swaps;
    if (s->levels) {
        s->levels[index] = (int32_t)level;
        s->swaps[index] = (int32_t)swaps;
    }
}

/* Tree distance between two 0-based heap nodes, CompleteBinaryTree.distance
 * in closed form: on 1-based ids, lifting the deeper id by the level
 * difference gives its ancestor on the shallower level, and two same-level
 * ids meet at their lowest common ancestor after as many levels as their
 * XOR has bits. */
static inline int64_t tree_distance(int64_t a, int64_t b)
{
    a += 1;
    b += 1;
    int64_t shift = bit_length((uint64_t)b) - bit_length((uint64_t)a);
    if (shift < 0) {
        int64_t swap = a;
        a = b;
        b = swap;
        shift = -shift;
    }
    return shift + 2 * bit_length((uint64_t)(a ^ (b >> shift)));
}

/* LevelLRUIndex._forget_never */
static inline void forget_never(serve_state *s, int64_t element, int64_t level)
{
    uint64_t *words = s->never_words + level * s->n_words;
    int64_t index = element >> 6;
    uint64_t word = words[index] ^ (1ULL << (element & 63));
    words[index] = word;
    if (!word)
        s->never_summary[level * s->n_summary + (index >> 6)] ^= 1ULL << (index & 63);
}

/* Highest set bit of a multi-word summary below bit ``index``, or -1. */
static int64_t highest_below(const uint64_t *summary, int64_t index)
{
    int64_t word_index = index >> 6;
    uint64_t word = summary[word_index] & ((1ULL << (index & 63)) - 1);
    for (;;) {
        if (word)
            return (word_index << 6) + bit_length(word) - 1;
        if (--word_index < 0)
            return -1;
        word = summary[word_index];
    }
}

/* LevelLRUIndex.place */
static void place(serve_state *s, int64_t element, int64_t level)
{
    int64_t *nxt = s->next;
    int64_t *prv = s->prev;
    int64_t cursor;
    s->level_of[element] = level;
    int64_t sentinel = s->n_elements + level;
    int64_t stamp = s->last_access[element];
    if (stamp == -1) {
        uint64_t *words = s->never_words + level * s->n_words;
        uint64_t *summary = s->never_summary + level * s->n_summary;
        int64_t index = element >> 6;
        uint64_t bit = 1ULL << (element & 63);
        uint64_t word = words[index];
        uint64_t below = word & (bit - 1);
        if (below) {
            cursor = (index << 6) + bit_length(below) - 1;
        } else {
            int64_t other = highest_below(summary, index);
            if (other >= 0)
                cursor = (other << 6) + bit_length(words[other]) - 1;
            else
                cursor = sentinel;
        }
        if (!word)
            summary[index >> 6] |= 1ULL << (index & 63);
        words[index] = word | bit;
    } else {
        const int64_t *last_access = s->last_access;
        cursor = prv[sentinel];
        while (last_access[cursor] > stamp)
            cursor = prv[cursor];
    }
    int64_t follower = nxt[cursor];
    nxt[cursor] = element;
    prv[element] = cursor;
    nxt[element] = follower;
    prv[follower] = element;
}

/* A fresh LevelLRUIndex from node_of, for a tree of n_levels levels: every
 * element is never accessed, so one pass in identifier order appends each
 * element at its level's tail and sets its bitmap bit.  The buffers arrive
 * zeroed; the sentinel of level d is n_elements + d.  Returns the number of
 * elements linked: fewer than n_elements when node_of[that element] is not
 * a node of the tree, which leaves the buffers half built. */
static int64_t lru_build(serve_state *s, int64_t n_levels)
{
    int64_t *nxt = s->next;
    int64_t *prv = s->prev;
    int64_t base = s->n_elements;
    for (int64_t i = 0; i < base + n_levels; i++)
        s->last_access[i] = -1;
    for (int64_t sentinel = base; sentinel < base + n_levels; sentinel++)
        nxt[sentinel] = prv[sentinel] = sentinel;
    for (int64_t element = 0; element < base; element++) {
        int64_t node = s->node_of[element];
        if (node < 0 || node >= base)
            return element;
        int64_t level = bit_length((uint64_t)(node + 1)) - 1;
        int64_t sentinel = base + level;
        int64_t tail = prv[sentinel];
        nxt[tail] = element;
        prv[element] = tail;
        nxt[element] = sentinel;
        prv[sentinel] = element;
        s->level_of[element] = level;
        int64_t index = element >> 6;
        s->never_words[level * s->n_words + index] |= 1ULL << (element & 63);
        s->never_summary[level * s->n_summary + (index >> 6)] |= 1ULL << (index & 63);
    }
    return base;
}

/* RotorPush._adjust over a chunk: flip(level) and the push-down PD fused.
 * One descent along the global path toggles each pointer as it is consumed
 * and shifts every path element one level down, with the requested element
 * entering at the root; the swap counts are Lemma 1's closed forms. */
int64_t rotor_push_serve(serve_state *s, const int64_t *chunk, int64_t count)
{
    int64_t *elem_at = s->elem_at;
    int64_t *node_of = s->node_of;
    int64_t *pointers = s->pointers;
    for (int64_t i = 0; i < count; i++) {
        int64_t element = chunk[i];
        int64_t source = node_of[element];
        int64_t level = bit_length((uint64_t)(source + 1)) - 1;
        int64_t swaps;
        if (level == 0) {
            swaps = 0;
        } else {
            int64_t carried = elem_at[0];
            elem_at[0] = element;
            node_of[element] = 0;
            int64_t node = 0;
            for (int64_t step = 0; step < level; step++) {
                int64_t direction = pointers[node];
                pointers[node] = direction ^ 1;
                node = 2 * node + 1 + direction;
                int64_t displaced = elem_at[node];
                elem_at[node] = carried;
                node_of[carried] = node;
                carried = displaced;
            }
            if (node == source) {
                /* the element sat on the global path: the cycle closes at
                 * its node and carried is the element's stale copy */
                swaps = level;
            } else {
                elem_at[source] = carried;
                node_of[carried] = source;
                swaps = 3 * level - 1;
            }
        }
        account(s, i, level, swaps);
    }
    return count;
}

/* MoveHalf._adjust over a chunk: the exchange with the half-depth level's
 * LRU head, fused over the placement and the LRU index.  The accessed
 * element, the newest of all, is appended at that level's tail; the partner
 * joins the accessed element's old level at the tail when it is the newest
 * there, else through place().  Both realisations of _adjust transpose the
 * two elements at 2 * dist - 1 adjacent swaps. */
int64_t move_half_serve(serve_state *s, const int64_t *chunk, int64_t count)
{
    int64_t *elem_at = s->elem_at;
    int64_t *node_of = s->node_of;
    int64_t *nxt = s->next;
    int64_t *prv = s->prev;
    int64_t *last_access = s->last_access;
    int64_t *level_of = s->level_of;
    int64_t base = s->n_elements; /* the sentinel of level d is base + d */
    for (int64_t i = 0; i < count; i++) {
        int64_t element = chunk[i];
        int64_t level = bit_length((uint64_t)(node_of[element] + 1)) - 1;
        int64_t clock = ++s->clock;
        if (last_access[element] < 0)
            forget_never(s, element, level);
        last_access[element] = clock;
        if (level == 0) {
            account(s, i, 0, 0);
            continue;
        }
        int64_t target_level = level >> 1;
        int64_t sentinel = base + target_level;
        int64_t partner = nxt[sentinel];
        if (partner == sentinel) {
            s->error_level = target_level;
            return i;
        }

        /* Unlink both; the partner is its list's head. */
        int64_t before = prv[element];
        int64_t after = nxt[element];
        nxt[before] = after;
        prv[after] = before;
        after = nxt[partner];
        nxt[sentinel] = after;
        prv[after] = sentinel;
        if (last_access[partner] < 0)
            forget_never(s, partner, target_level);

        int64_t tail = prv[sentinel];
        nxt[tail] = element;
        prv[element] = tail;
        nxt[element] = sentinel;
        prv[sentinel] = element;
        level_of[element] = target_level;

        sentinel = base + level;
        tail = prv[sentinel];
        if (last_access[partner] > last_access[tail]) {
            nxt[tail] = partner;
            prv[partner] = tail;
            nxt[partner] = sentinel;
            prv[sentinel] = partner;
            level_of[partner] = level;
        } else {
            place(s, partner, level);
        }

        int64_t source = node_of[element];
        int64_t target = node_of[partner];
        elem_at[source] = partner;
        elem_at[target] = element;
        node_of[element] = target;
        node_of[partner] = source;
        account(s, i, level, 2 * tree_distance(source, target) - 1);
    }
    return count;
}

/* MaxPush._adjust over a chunk: the demotion cascade, fused over the
 * placement and the LRU index.  One pass from the root down reads each
 * level's LRU head (the victim), moves the carried element onto the
 * victim's node, unlinks the victim and links the carried element into the
 * level's list, at the tail with one stamp comparison when it is the newest
 * there, else through place().  The swap count is the reference's: the
 * accessed element's level swaps up, one swap down per level plus twice the
 * climb to each hop's lowest common ancestor, read off 1-based heap ids as
 * the bit length of the XOR of two same-level ids. */
int64_t max_push_serve(serve_state *s, const int64_t *chunk, int64_t count)
{
    int64_t *elem_at = s->elem_at;
    int64_t *node_of = s->node_of;
    int64_t *nxt = s->next;
    int64_t *prv = s->prev;
    int64_t *last_access = s->last_access;
    int64_t *level_of = s->level_of;
    int64_t base = s->n_elements; /* the sentinel of level d is base + d */
    for (int64_t i = 0; i < count; i++) {
        int64_t element = chunk[i];
        int64_t source = node_of[element];
        int64_t level = bit_length((uint64_t)(source + 1)) - 1;
        int64_t clock = ++s->clock;
        if (last_access[element] < 0)
            forget_never(s, element, level);
        last_access[element] = clock;
        if (level == 0) {
            /* the root's list holds only the element: the access leaves it
             * at the tail already */
            account(s, i, 0, 0);
            continue;
        }

        /* The accessed element leaves its level and takes the root, whose
         * element starts the cascade. */
        int64_t before = prv[element];
        int64_t after = nxt[element];
        nxt[before] = after;
        prv[after] = before;
        int64_t carried = elem_at[0];
        if (last_access[carried] < 0)
            forget_never(s, carried, 0);
        elem_at[0] = element;
        node_of[element] = 0;
        level_of[element] = 0;
        nxt[base] = prv[base] = element;
        nxt[element] = prv[element] = base;

        int64_t climbs = 0;   /* levels climbed to the common ancestors, summed */
        int64_t previous = 1; /* 1-based heap id of the node the carried element leaves */
        for (int64_t depth = 1; depth <= level; depth++) {
            int64_t sentinel = base + depth;
            int64_t victim = nxt[sentinel];
            if (victim == sentinel) {
                s->error_level = depth;
                return i;
            }
            int64_t node = node_of[victim];
            int64_t heap = node + 1;
            climbs += bit_length((uint64_t)(previous ^ (heap >> 1)));
            previous = heap;
            elem_at[node] = carried;
            node_of[carried] = node;
            if (depth < level) {
                /* the victim is demoted; the last one stays on this level */
                after = nxt[victim];
                nxt[sentinel] = after;
                prv[after] = sentinel;
                if (last_access[victim] < 0)
                    forget_never(s, victim, depth);
            }
            int64_t tail = prv[sentinel];
            if (last_access[carried] > last_access[tail]) {
                nxt[tail] = carried;
                prv[carried] = tail;
                nxt[carried] = sentinel;
                prv[sentinel] = carried;
                level_of[carried] = depth;
            } else {
                place(s, carried, depth);
            }
            carried = victim;
        }

        /* The last victim takes the accessed element's node on its own level. */
        elem_at[source] = carried;
        node_of[carried] = source;
        climbs += bit_length((uint64_t)(previous ^ (source + 1)));
        account(s, i, level, 2 * (level + climbs));
    }
    return count;
}

/* CPython's genrand_uint32: MT19937 with its twist and tempering. */
#define MT_N 624
#define MT_M 397

/* MT19937's twist of all MT_N words. */
static void mt_twist(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
}

static inline uint32_t mt_temper(uint32_t y)
{
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static uint32_t genrand_uint32(serve_state *s)
{
    if (s->mt_index >= MT_N) {
        mt_twist(s->mt);
        s->mt_index = 0;
    }
    return mt_temper(s->mt[s->mt_index++]);
}

/* A generator on the caller's stack for the draws of one call: the state
 * words, and the tempered outputs of the last twist in block, next one at
 * index.  Kept off serve_state, no store through an output pointer can
 * alias its index. */
typedef struct {
    uint32_t mt[MT_N];
    uint32_t block[MT_N];
    int64_t index;
} mt_local;

static inline uint32_t local_uint32(mt_local *g)
{
    if (g->index >= MT_N) {
        mt_twist(g->mt);
        for (int i = 0; i < MT_N; i++)
            g->block[i] = mt_temper(g->mt[i]);
        g->index = 0;
    }
    return g->block[g->index++];
}

/* random.Random._randbelow_with_getrandbits(n) for 1 <= n < 2**32: the
 * top n.bit_length() bits of one word (getrandbits), redrawn while >= n. */
static inline uint32_t randbelow(serve_state *s, uint32_t n)
{
    int64_t shift = 32 - bit_length(n);
    uint32_t draw;
    do
        draw = genrand_uint32(s) >> shift;
    while (draw >= n);
    return draw;
}

/* randrange(1 << levels[i]) into out[i]: the loader's check of Random-Push. */
void random_push_draws(serve_state *s, const int64_t *levels, int64_t *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = randbelow(s, 1U << levels[i]);
}

/* randrange(n) count times, for 1 <= n < 2**32. */
void randbelow_fill(serve_state *s, int64_t n, int64_t *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = randbelow(s, (uint32_t)n);
}

/* CPython's genrand_res53: random() from two 32-bit words, 53 bits. */
static inline double res53(uint32_t a, uint32_t b)
{
    return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0);
}

/* The 32-bit word at bytes, least significant byte first. */
static inline uint32_t little_word(const uint8_t *bytes)
{
    return (uint32_t)bytes[0] | (uint32_t)bytes[1] << 8 | (uint32_t)bytes[2] << 16
           | (uint32_t)bytes[3] << 24;
}

/* random() count times. */
void random_fill(serve_state *s, double *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        uint32_t a = genrand_uint32(s);
        out[i] = res53(a, genrand_uint32(s));
    }
}

/* out = list(range(n)), then random.Random.shuffle(out) for n < 2**32:
 * for i from n - 1 down to 1, swap out[i] with out[randbelow(i + 1)]
 * (randbelow's rule on g's words). */
static void local_shuffle(mt_local *g, int64_t *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        uint32_t bound = (uint32_t)(i + 1);
        int64_t shift = 32 - bit_length(bound);
        uint32_t j;
        do
            j = local_uint32(g) >> shift;
        while (j >= bound);
        int64_t held = out[i];
        out[i] = out[j];
        out[j] = held;
    }
}

/* local_shuffle on the state's generator: its words and index are copied
 * to the stack, the rest of the current twist tempered, and both go back. */
void shuffle_range(serve_state *s, int64_t *out, int64_t n)
{
    mt_local g;
    memcpy(g.mt, s->mt, sizeof g.mt);
    for (int64_t i = s->mt_index; i < MT_N; i++)
        g.block[i] = mt_temper(g.mt[i]);
    g.index = s->mt_index;
    local_shuffle(&g, out, n);
    memcpy(s->mt, g.mt, sizeof g.mt);
    s->mt_index = g.index;
}

/* CPython's init_genrand(19650218), the start of every int seed's keying:
 * the same MT_N words whatever the seed, so they are computed once, when
 * the library loads. */
static uint32_t mt_init[MT_N];

__attribute__((constructor)) static void mt_init_fill(void)
{
    mt_init[0] = 19650218U;
    for (int i = 1; i < MT_N; i++)
        mt_init[i] = 1812433253U * (mt_init[i - 1] ^ (mt_init[i - 1] >> 30)) + (uint32_t)i;
}

/* CPython's init_by_array (Modules/_randommodule.c) on mt_init:
 * random.Random(seed) for an int seed keys MT19937 with the 32-bit words of
 * abs(seed), least significant first (one zero word for 0).  The first draw
 * twists. */
static void mt_key(uint32_t *mt, const uint32_t *key, int64_t key_length)
{
    int64_t i = 1, j = 0, k;
    memcpy(mt, mt_init, sizeof mt_init);
    /* each word depends on the one before: kept in a register, not reloaded */
    uint32_t previous = mt[0];
    for (k = MT_N > key_length ? MT_N : key_length; k; k--) {
        previous = mt[i] = (mt[i] ^ ((previous ^ (previous >> 30)) * 1664525U))
                           + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = previous;
            i = 1;
        }
        if (j >= key_length)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        previous = mt[i] = (mt[i] ^ ((previous ^ (previous >> 30)) * 1566083941U))
                           - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = previous;
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
}

/* TreeNetwork.with_random_placement for an int seed: elem_at becomes
 * list(range(n)) after random.Random(seed).shuffle, node_of its inverse.
 * The generator lives on this call's stack.  Returns n, or the first node
 * whose element repeats or lies outside 0..n-1 (node_of half written). */
int64_t seeded_placement(serve_state *s, const uint32_t *key, int64_t key_length, int64_t n)
{
    mt_local g;
    int64_t *elem_at = s->elem_at;
    int64_t *node_of = s->node_of;
    mt_key(g.mt, key, key_length);
    g.index = MT_N;
    local_shuffle(&g, elem_at, n);
    for (int64_t element = 0; element < n; element++)
        node_of[element] = -1;
    for (int64_t node = 0; node < n; node++) {
        int64_t element = elem_at[node];
        if (element < 0 || element >= n || node_of[element] >= 0)
            return node;
        node_of[element] = node;
    }
    return n;
}

/* The temporal repeat rule over values[0..count): draw i is one random()
 * and, when it is below p, values[i] becomes the value before it (previous
 * for i = 0).  With words non-NULL, draw i comes from raw Mersenne Twister
 * words 2i and 2i + 1, as rng.getrandbits(64 * count).to_bytes(8 * count,
 * "little") lays them out; otherwise from the state's generator. */
void repeat_fill(serve_state *s, const uint8_t *words, int64_t *values, int64_t count,
                 int64_t previous, double p)
{
    for (int64_t i = 0; i < count; i++) {
        uint32_t a, b;
        if (words) {
            a = little_word(words + 8 * i);
            b = little_word(words + 8 * i + 4);
        } else {
            a = genrand_uint32(s);
            b = genrand_uint32(s);
        }
        double draw = res53(a, b);
        if (draw < p)
            values[i] = previous;
        previous = values[i];
    }
}

/* random() count times from raw words laid out as for repeat_fill. */
void random_words_fill(const uint8_t *words, double *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = res53(little_word(words + 8 * i), little_word(words + 8 * i + 4));
}

/*
 * numpy.random.default_rng(seed) for an int seed >= 0, and the Zipf draws
 * of repro.workloads.zipf on it.
 *
 * SeedSequence(seed) pools the seed's 32-bit words (least significant
 * first, one zero word for 0) into four words with hashmix and mix, and
 * generate_state(4, uint64) hashes the pool into eight words read as four
 * little-endian 64-bit words w0..w3.  PCG64 seeds its 128-bit LCG with
 * initstate w0:w1 and initseq w2:w3 (pcg_setseq_128_srandom_r) and outputs
 * XSL-RR of each new state.  Its 32-bit draws split one 64-bit output, low
 * half first, and buffer the high half.  The state lives in six uint64
 * words: state and increment (high word first), the buffer flag and the
 * buffered half.  repro.workloads.zipf.PCG64 is the Python reference of
 * these steps; the loader compares every entry point with it.
 */
typedef unsigned __int128 pcg128;

#define PCG_MULTIPLIER (((pcg128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

typedef struct {
    pcg128 state;
    pcg128 inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64;

static inline pcg64 pcg64_load(const uint64_t *words)
{
    pcg64 rng = {
        ((pcg128)words[0] << 64) | words[1],
        ((pcg128)words[2] << 64) | words[3],
        words[4] != 0,
        (uint32_t)words[5],
    };
    return rng;
}

static inline void pcg64_store(const pcg64 *rng, uint64_t *words)
{
    words[0] = (uint64_t)(rng->state >> 64);
    words[1] = (uint64_t)rng->state;
    words[2] = (uint64_t)(rng->inc >> 64);
    words[3] = (uint64_t)rng->inc;
    words[4] = (uint64_t)rng->has_uint32;
    words[5] = rng->uinteger;
}

static inline uint64_t pcg64_next64(pcg64 *rng)
{
    rng->state = rng->state * PCG_MULTIPLIER + rng->inc;
    uint64_t folded = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rotation = (unsigned)(rng->state >> 122);
    return (folded >> rotation) | (folded << ((-rotation) & 63));
}

static inline uint32_t pcg64_next32(pcg64 *rng)
{
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return rng->uinteger;
    }
    uint64_t next = pcg64_next64(rng);
    rng->has_uint32 = 1;
    rng->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* Generator.random(): 53 bits of one 64-bit output. */
static inline double pcg64_double(pcg64 *rng)
{
    return (pcg64_next64(rng) >> 11) * (1.0 / 9007199254740992.0);
}

/* random_interval(max): the smallest all-ones mask covering max, redrawn
 * while the masked draw exceeds max; 32-bit draws while max fits. */
static inline uint64_t pcg64_interval(pcg64 *rng, uint64_t max)
{
    if (!max)
        return 0;
    uint64_t mask = max;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    uint64_t value;
    if (max <= 0xFFFFFFFFULL) {
        while ((value = (pcg64_next32(rng) & mask)) > max)
            ;
    } else {
        while ((value = (pcg64_next64(rng) & mask)) > max)
            ;
    }
    return value;
}

static inline uint32_t seed_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875U;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline uint32_t seed_mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddU * x - 0x4973f715U * y;
    return result ^ (result >> 16);
}

/* default_rng(seed) into words (six uint64), then, with out non-NULL,
 * Generator.permutation(n) into out: arange(n) shuffled by Fisher-Yates
 * from the last position down, swapping i with random_interval(i). */
void pcg64_seed(uint64_t *words, const uint32_t *key, int64_t key_length, int64_t *out,
                int64_t n)
{
    uint32_t pool[4];
    uint32_t hash_const = 0x43b0d7e5U;
    for (int64_t i = 0; i < 4; i++)
        pool[i] = seed_hashmix(i < key_length ? key[i] : 0, &hash_const);
    for (int i_src = 0; i_src < 4; i_src++)
        for (int i_dst = 0; i_dst < 4; i_dst++)
            if (i_src != i_dst)
                pool[i_dst] = seed_mix(pool[i_dst], seed_hashmix(pool[i_src], &hash_const));
    for (int64_t i_src = 4; i_src < key_length; i_src++)
        for (int i_dst = 0; i_dst < 4; i_dst++)
            pool[i_dst] = seed_mix(pool[i_dst], seed_hashmix(key[i_src], &hash_const));
    uint32_t state[8];
    hash_const = 0x8b51f9ddU;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i & 3] ^ hash_const;
        hash_const *= 0x58f38dedU;
        value *= hash_const;
        state[i] = value ^ (value >> 16);
    }
    uint64_t w[4];
    for (int i = 0; i < 4; i++)
        w[i] = (uint64_t)state[2 * i] | (uint64_t)state[2 * i + 1] << 32;
    pcg64 rng = {0, (((pcg128)w[2] << 64 | w[3]) << 1) | 1, 0, 0};
    pcg64_next64(&rng);
    rng.state += (pcg128)w[0] << 64 | w[1];
    pcg64_next64(&rng);
    if (out) {
        for (int64_t i = 0; i < n; i++)
            out[i] = i;
        for (int64_t i = n - 1; i > 0; i--) {
            int64_t j = (int64_t)pcg64_interval(&rng, (uint64_t)i);
            int64_t held = out[i];
            out[i] = out[j];
            out[j] = held;
        }
    }
    pcg64_store(&rng, words);
}

/* Generator.random(count). */
void pcg64_random_fill(uint64_t *words, double *out, int64_t count)
{
    pcg64 rng = pcg64_load(words);
    for (int64_t i = 0; i < count; i++)
        out[i] = pcg64_double(&rng);
    pcg64_store(&rng, words);
}

/* count Zipf identifiers: rank = cdf.searchsorted(random(), side="right")
 * over the n-entry CDF (the number of entries <= the draw), then
 * identifier_of_rank[rank], or the rank itself when that is NULL.  The
 * search keeps every entry before base <= the draw and every entry from
 * base + length on > it, halving length without a branch to mispredict. */
void zipf_fill(uint64_t *words, const double *cdf, int64_t n, const int64_t *identifier_of_rank,
               int64_t *out, int64_t count)
{
    pcg64 rng = pcg64_load(words);
    for (int64_t i = 0; i < count; i++) {
        double draw = pcg64_double(&rng);
        const double *base = cdf;
        int64_t length = n;
        while (length > 1) {
            int64_t half = length >> 1;
            base = base[half] <= draw ? base + half : base;
            length -= half;
        }
        int64_t rank = (base - cdf) + (*base <= draw);
        out[i] = identifier_of_rank ? identifier_of_rank[rank] : rank;
    }
    pcg64_store(&rng, words);
}

/* RandomPush._adjust over a chunk: one randrange(1 << level) per request
 * below the root, as the reference draws it; the bits of the offset, most
 * significant first, steer the push-down's descent to the target. */
int64_t random_push_serve(serve_state *s, const int64_t *chunk, int64_t count)
{
    int64_t *elem_at = s->elem_at;
    int64_t *node_of = s->node_of;
    for (int64_t i = 0; i < count; i++) {
        int64_t element = chunk[i];
        int64_t source = node_of[element];
        int64_t level = bit_length((uint64_t)(source + 1)) - 1;
        int64_t swaps;
        if (level == 0) {
            swaps = 0;
        } else {
            int64_t offset = randbelow(s, 1U << level);
            int64_t carried = elem_at[0];
            elem_at[0] = element;
            node_of[element] = 0;
            int64_t node = 0;
            for (int64_t shift = level - 1; shift >= 0; shift--) {
                node = 2 * node + 1 + ((offset >> shift) & 1);
                int64_t displaced = elem_at[node];
                elem_at[node] = carried;
                node_of[carried] = node;
                carried = displaced;
            }
            if (node == source) {
                swaps = level;
            } else {
                elem_at[source] = carried;
                node_of[carried] = source;
                swaps = 3 * level - 1;
            }
        }
        account(s, i, level, swaps);
    }
    return count;
}

/* MoveToFrontTree._adjust over a chunk: the accessed element bubbles to
 * the root along its own path. */
int64_t move_to_front_serve(serve_state *s, const int64_t *chunk, int64_t count)
{
    int64_t *elem_at = s->elem_at;
    int64_t *node_of = s->node_of;
    for (int64_t i = 0; i < count; i++) {
        int64_t element = chunk[i];
        int64_t node = node_of[element];
        int64_t level = bit_length((uint64_t)(node + 1)) - 1;
        /* each ancestor's element moves one level down, one swap per edge */
        while (node) {
            int64_t parent = (node - 1) >> 1;
            int64_t displaced = elem_at[parent];
            elem_at[node] = displaced;
            node_of[displaced] = node;
            node = parent;
        }
        elem_at[0] = element;
        node_of[element] = 0;
        account(s, i, level, level);
    }
    return count;
}

/* The static trees over a chunk: every request pays its node's level plus
 * one and nothing moves.  Static-Oblivious on its random placement, and
 * Static-Opt once its frequency placement is in node_of. */
int64_t static_serve(serve_state *s, const int64_t *chunk, int64_t count)
{
    const int64_t *node_of = s->node_of;
    for (int64_t i = 0; i < count; i++)
        account(s, i, bit_length((uint64_t)(node_of[chunk[i]] + 1)) - 1, 0);
    return count;
}

/* Static-Opt without a tree: counts the chunk's requests per element. */
int64_t static_opt_count(serve_state *s, const int64_t *chunk, int64_t count)
{
    int64_t *counts = s->counts;
    for (int64_t i = 0; i < count; i++)
        counts[chunk[i]]++;
    return count;
}

static int descending(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x < y) - (x > y);
}

/* Static-Opt's access total from its n_elements counts (sorted in place):
 * the frequency placement puts the r-th largest count at BFS node r, so the
 * total is the sum of count(r) * (level(r) + 1).  Elements of equal count
 * only trade nodes within a level, so ties change no total. */
void static_opt_total(serve_state *s)
{
    int64_t *counts = s->counts;
    int64_t n = s->n_elements;
    qsort(counts, (size_t)n, sizeof(int64_t), descending);
    for (int64_t r = 0; r < n; r++)
        s->access_total += counts[r] * bit_length((uint64_t)(r + 1));
}

/* The index of the first element of chunk outside 0..n-1, or count. */
int64_t first_outside(const int64_t *chunk, int64_t count, int64_t n)
{
    for (int64_t i = 0; i < count; i++)
        if ((uint64_t)chunk[i] >= (uint64_t)n)
            return i;
    return count;
}

/* A network source's destinations as its tree's elements: every node but
 * the source is a destination, and destination d is element
 * d - (d > source).  Writes out[i] for chunk[i] until the first destination
 * outside 0..n_nodes-1 or equal to source, and returns its index; count if
 * there is none. */
int64_t source_elements(const int64_t *chunk, int64_t *out, int64_t count, int64_t source,
                        int64_t n_nodes)
{
    for (int64_t i = 0; i < count; i++) {
        int64_t destination = chunk[i];
        if ((uint64_t)destination >= (uint64_t)n_nodes || destination == source)
            return i;
        out[i] = destination - (destination > source);
    }
    return count;
}

/* Re-initialise the tree held in s's buffers to the one make_algorithm
 * builds from int seeds, so one set of buffers serves seeded trees one
 * after another.  Static-Opt (counts set) only zeroes its counts.  Every
 * other algorithm draws the placement of seeded_placement from the
 * placement key, then zeroes its rotor pointers (pointers set), rebuilds
 * its LRU index on zeroed never-accessed bitmaps (never_words set) or keys
 * its Mersenne Twister from the algorithm key (mt set).  The totals, the
 * clock, the error level and the record columns start afresh.  Returns
 * n_elements, or the failed index of seeded_placement or lru_build. */
int64_t seeded_tree(serve_state *s, const uint32_t *key, int64_t key_length,
                    const uint32_t *algorithm_key, int64_t algorithm_key_length)
{
    int64_t n = s->n_elements;
    s->access_total = 0;
    s->adjustment_total = 0;
    s->clock = 0;
    s->error_level = -1;
    s->levels = 0;
    s->swaps = 0;
    if (s->counts) {
        memset(s->counts, 0, (size_t)n * sizeof *s->counts);
        return n;
    }
    int64_t placed = seeded_placement(s, key, key_length, n);
    if (placed < n)
        return placed;
    if (s->pointers)
        memset(s->pointers, 0, (size_t)(n >> 1) * sizeof *s->pointers);
    if (s->never_words) {
        int64_t n_levels = bit_length((uint64_t)n);
        memset(s->never_words, 0, (size_t)(n_levels * s->n_words) * sizeof *s->never_words);
        memset(s->never_summary, 0,
               (size_t)(n_levels * s->n_summary) * sizeof *s->never_summary);
        return lru_build(s, n_levels);
    }
    if (s->mt) {
        mt_key(s->mt, algorithm_key, algorithm_key_length);
        s->mt_index = MT_N;
    }
    return n;
}
