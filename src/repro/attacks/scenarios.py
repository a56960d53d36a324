"""The paper's attack scenarios, as runnable MiniC programs.

Each scenario bundles: the victim program (MiniC source), benign
inputs, the scripted exploit, and the observable that distinguishes a
*successful* attack (control-flow bent) from a failed or detected one.

Scenario table (§2.2, §3, §6.3):

====================  ========================================  ==========================
scenario              attack                                    expected detection
====================  ========================================  ==========================
privilege_escalation  Listing 1: gets() overflow flips the      CPA, Pythia, DFI
                      admin check
proftpd_leak          Listing 2 style: overflow corrupts the    CPA, Pythia, DFI
                      copy bound, bending the overflow check
pointer_dualism       Listing 3: overflow of the input buffer   CPA, Pythia, DFI
                      into the stride meta[0] misdirects `*p`
pointer_misdirection  §3 pure-dataflow variant: a *legitimate*  CPA only (the conservative
                      scanf value steers `p` onto `m`; no       scheme's completeness
                      overflow ever happens                     claim, §4.2)
heap_overflow         overflow between adjacent heap chunks     CPA, DFI detect;
                      flips a privilege flag                    Pythia *prevents* (isolation)
interprocedural       callee gets() into caller's buffer,       CPA, Pythia, DFI
                      overflow spills into caller's frame
====================  ========================================  ==========================

Beyond the paper's listings, three scenarios model the related-work
attack families the campaign fuzzer (:mod:`repro.robustness.campaign`)
mutates -- PACStack-style signed-pointer reuse, control-flow bending
through corrupted call operands, and cross-heap-section confusion:

====================  ========================================  ==========================
scenario              attack                                    expected detection
====================  ========================================  ==========================
pac_reuse             overflow splices a pointer signed for     CPA, Pythia, DFI
                      one slot into another slot (genuine MAC,
                      wrong site -- reuse/substitution)
call_bend             overflow corrupts the dispatch selector,  CPA, Pythia, DFI
                      bending the call to the privileged
                      handler
heap_cross            overflow from a shared-section chunk      CPA, DFI detect;
                      into the adjacent ACL word                Pythia *prevents* (isolation)
====================  ========================================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import BASELINE, SCHEMES
from ..frontend.driver import compile_source
from ..hardware.cpu import CPU, ExecutionResult
from ..ir.module import Module
from .controller import AttackController, overflow_payload


@dataclass
class Scenario:
    """A victim program plus its scripted exploit."""

    name: str
    description: str
    source: str
    benign_inputs: List[bytes]
    #: builds a fresh controller delivering the exploit
    make_attack: Callable[[], AttackController]
    #: substring present in output iff the attack *succeeded* (bent flow)
    success_marker: bytes
    #: substring present on the benign path
    benign_marker: bytes
    #: schemes expected to detect (trap); others either miss or prevent
    detected_by: Tuple[str, ...] = tuple(s for s in SCHEMES if s != BASELINE)
    #: schemes that stop the attack without trapping (e.g. isolation)
    prevented_by: Tuple[str, ...] = ()

    def compile(self) -> Module:
        return compile_source(self.source, name=self.name)

    def run_benign(
        self, module: Module, seed: int = 2024, interpreter: Optional[str] = None
    ) -> ExecutionResult:
        cpu = CPU(module, seed=seed, interpreter=interpreter)
        return cpu.run(inputs=list(self.benign_inputs))

    def run_attack(
        self, module: Module, seed: int = 2024, interpreter: Optional[str] = None
    ) -> ExecutionResult:
        cpu = CPU(
            module, seed=seed, attack=self.make_attack(), interpreter=interpreter
        )
        return cpu.run(inputs=list(self.benign_inputs))

    def attack_succeeded(self, result: ExecutionResult) -> bool:
        return result.ok and self.success_marker in result.output

    def attack_outcome(self, result: ExecutionResult) -> str:
        """``success`` (flow bent), ``detected`` (trap), or ``prevented``."""
        if result.detected:
            return "detected"
        if self.attack_succeeded(result):
            return "success"
        return "prevented"


# ---------------------------------------------------------------------------
# Listing 1: string-buffer overflow -> privilege escalation
# ---------------------------------------------------------------------------

_LISTING1_SOURCE = r"""
// Listing 1 of the paper: the user/admin check is bent by overflowing
// the input buffer `str` into the adjacent `user` credential buffer.
int access_check(char *pwd) {
    char str[16];
    char user[16];
    strcpy(user, pwd);          // verify_user() stand-in
    gets(str);                  // the vulnerable input channel
    if (strncmp(user, "admin", 5) == 0) {
        printf("SUPERUSER\n");  // privileged code
        return 1;
    }
    printf("normal user\n");
    return 0;
}

int main() {
    return access_check("guest");
}
"""


def _listing1_attack() -> AttackController:
    # 16 padding bytes exit `str`, then "admin" lands on `user`.
    return AttackController().add("gets", overflow_payload(b"", 16, b"admin\x00"))


# ---------------------------------------------------------------------------
# Listing 2: ProFTPd-style bound corruption -> information leakage
# ---------------------------------------------------------------------------

_PROFTPD_SOURCE = r"""
// ProFTPd sreplace() distilled: the session state (the copy bound and
// cursor of Listing 2) lives in a struct next to the input buffer.
// The attacker corrupts the bound, the "safe" copy sstrncpy trusts it,
// and the overflow check is bent, leaking the private key.  The
// struct-field loads are exactly the field-insensitive accesses DFI
// cannot reason about.
struct session { int blen; int nread; };

int serve_request(void) {
    char cmd[16];
    struct session sess;
    char out[40];
    char secret[32];
    sess.blen = 8;
    sess.nread = 0;
    strcpy(secret, "PRIVATE-KEY-0xDEADBEEF");
    gets(cmd);                        // CWD input: overflow corrupts sess.blen
    sstrncpy(out, cmd, sess.blen);    // copies attacker-chosen byte count
    if (sess.blen <= 8) {
        printf("request served\n");
        return 0;
    }
    printf("LEAK:%s\n", secret);     // reachable only by bending blen
    return 1;
}

int main() {
    return serve_request();
}
"""


def _proftpd_attack() -> AttackController:
    # 16 bytes fill `cmd`, the next 8 bytes land on sess.blen = 9999.
    blen = (9999).to_bytes(8, "little")
    return AttackController().add("gets", overflow_payload(b"CWD /tmp", 16, blen))


# ---------------------------------------------------------------------------
# Listing 3: pointer/array dualism -- overflow into the stride
# ---------------------------------------------------------------------------

_DUALISM_SOURCE = r"""
// Listing 3 of the paper: the input channel buffer overflows into the
// stride meta[0]; `p = arr + meta[0]` then aliases vals[0] (the `m` of
// the listing), and `*p = n + 1` bends the `m > n` predicate.
int main() {
    int arr[4];
    char kbuf[8];
    int meta[2];
    int vals[2];
    int *p;
    meta[0] = 1;          // the stride `l`
    vals[1] = 5;          // n
    vals[0] = vals[1] - 1; // m = n - 1
    arr[0] = 0;
    gets(kbuf);           // overflow corrupts meta[0]
    p = arr;
    p = p + meta[0];      // pointer arithmetic: DFI's slice stops here
    *p = vals[1] + 1;     // with the right stride, this aliases vals[0]
    if (vals[0] > vals[1]) {
        printf("PRIVILEGED\n");
        return 1;
    }
    printf("ok\n");
    return 0;
}
"""


def _dualism_payload(cpu) -> bytes:
    # Adaptive attacker (§2.5: full layout knowledge): overflow kbuf up
    # to meta[0] and plant the stride that makes arr + stride == &vals[0].
    kbuf = cpu.stack_slot_address("kbuf")
    meta = cpu.stack_slot_address("meta")
    arr = cpu.stack_slot_address("arr")
    vals = cpu.stack_slot_address("vals")
    if None in (kbuf, meta, arr, vals) or meta <= kbuf:
        # Re-layout moved the stride out of reach: spray blindly (this
        # is what tripping the canary looks like from the attacker side).
        return b"A" * 64
    stride = ((vals - arr) // 8) % (1 << 64)
    return overflow_payload(b"7", meta - kbuf, stride.to_bytes(8, "little"))


def _dualism_attack() -> AttackController:
    return AttackController().add("gets", _dualism_payload)


# ---------------------------------------------------------------------------
# §3 variant: pure pointer misdirection, no overflow at all
# ---------------------------------------------------------------------------

_MISDIRECTION_SOURCE = r"""
// The new attack class of §3 in its purest form: the attacker supplies
// a *legitimate* integer; every dataflow step is legal C, yet the
// computed pointer lands on the branch variable.  Only value-level
// integrity (the conservative CPA scheme) catches the forged write.
int main() {
    int arr[4];
    int k = 0;
    int vals[2];
    int *p;
    vals[1] = 5;            // n
    vals[0] = vals[1] - 1;  // m = n - 1
    arr[0] = 0;
    scanf("%d", &k);        // legal input, no overflow
    p = arr;
    p = p + k;              // attacker-steered pointer arithmetic
    *p = vals[1] + 1;       // out-of-bounds store onto vals[0]
    if (vals[0] > vals[1]) {
        printf("PRIVILEGED\n");
        return 1;
    }
    printf("ok\n");
    return 0;
}
"""


def _misdirection_payload(cpu) -> bytes:
    # The attacker supplies the perfectly legal integer k for which
    # arr + k aliases vals[0] -- computed from the live layout.
    arr = cpu.stack_slot_address("arr")
    vals = cpu.stack_slot_address("vals")
    if arr is None or vals is None:
        return b"1"
    return str((vals - arr) // 8).encode()


def _misdirection_attack() -> AttackController:
    return AttackController().add("scanf%d", _misdirection_payload)


# ---------------------------------------------------------------------------
# Heap overflow between adjacent chunks
# ---------------------------------------------------------------------------

_HEAP_SOURCE = r"""
// Two adjacent heap chunks: the request buffer (input channel
// destination) sits right below the session's privilege flag.  A heap
// overflow flips the flag.  Pythia relocates the vulnerable buffer to
// the isolated section, so the overflow can no longer reach the flag.
int main() {
    char *req;
    int *level;
    req = malloc(16);
    level = malloc(8);
    *level = 0;
    gets(req);               // heap overflow source
    if (*level > 0) {
        printf("ADMIN\n");
        return 1;
    }
    printf("guest\n");
    return 0;
}
"""


def _heap_attack() -> AttackController:
    # Chunks are 16-byte aligned with a 16-byte header: payload(16) +
    # header(16) pad, then 8 bytes land on *level.
    flag = (7).to_bytes(8, "little")
    return AttackController().add("gets", overflow_payload(b"GET /", 32, flag))


# ---------------------------------------------------------------------------
# Interprocedural overflow: callee writes the caller's buffer
# ---------------------------------------------------------------------------

_INTERPROC_SOURCE = r"""
// The §4.4 interprocedural case: main passes its buffer by pointer;
// the callee's input channel overflows it back in the caller's frame,
// spilling into the caller's admin flag.
void read_name(char *dest) {
    gets(dest);
}

int main() {
    char name[16];
    int perms[2];
    perms[0] = 0;
    perms[1] = 0;
    read_name(name);
    if (perms[0] != 0) {
        printf("ADMIN\n");
        return 1;
    }
    printf("hello %s\n", name);
    return 0;
}
"""


def _interproc_attack() -> AttackController:
    flag = (1).to_bytes(8, "little")
    return AttackController().add("gets", overflow_payload(b"eve", 16, flag))


# ---------------------------------------------------------------------------
# Signed-pointer reuse/substitution (PACStack's observation)
# ---------------------------------------------------------------------------

_PAC_REUSE_SOURCE = r"""
// Signed-pointer reuse: the public and private registries hold pointers
// into the same account record.  Under cpa both slots are value-signed
// -- but each with its *own* modifier, so splicing the (genuinely
// signed) private pointer into the public slot must fail to
// authenticate.  The attacker never forges a MAC; the overflow merely
// relocates one.
int main() {
    char nick[8];
    int *pubs[1];
    int *privs[1];
    int acct[2];
    acct[0] = 0;
    acct[1] = 0;
    pubs[0] = acct;
    privs[0] = acct + 1;
    gets(nick);
    *pubs[0] = 1;
    if (acct[1] != 0) {
        printf("SUBSTITUTED\n");
        return 1;
    }
    printf("member ok\n");
    return 0;
}
"""


def _pac_reuse_payload(cpu) -> bytes:
    # Adaptive substitution: read the live (possibly signed) bytes of
    # the private slot and splice them over the public slot.  Whatever
    # signature privs[0] carries is replayed verbatim -- the classic
    # reuse attack, no MAC forgery involved.
    nick = cpu.stack_slot_address("nick")
    pubs = cpu.stack_slot_address("pubs")
    privs = cpu.stack_slot_address("privs")
    if None in (nick, pubs, privs) or pubs <= nick:
        return b"A" * 64
    captured = bytes(cpu.memory.read_bytes(privs, 8))
    return overflow_payload(b"eve", pubs - nick, captured)


def _pac_reuse_attack() -> AttackController:
    return AttackController().add("gets", _pac_reuse_payload)


# ---------------------------------------------------------------------------
# Indirect-call operand corruption (control-flow bending)
# ---------------------------------------------------------------------------

_CALL_BEND_SOURCE = r"""
// Control-flow bending via a corrupted dispatch selector: the request
// router picks the handler from route[0], which sits right above the
// input buffer.  The overflow never touches a return address -- it
// bends the *operand* of the dispatch, the non-control-data analogue
// of an indirect-call hijack.
void handle_public(void) { printf("public ok\n"); }
void handle_admin(void)  { printf("CALL-BENT\n"); }
int main() {
    char cmd[8];
    int route[2];
    int i;
    route[0] = 0;
    route[1] = 0;
    for (i = 0; i < 3; i = i + 1) {
        gets(cmd);
        if (route[0] != 0) {
            handle_admin();
            return 1;
        }
        handle_public();
    }
    return 0;
}
"""


def _call_bend_payload(cpu) -> bytes:
    cmd = cpu.stack_slot_address("cmd")
    route = cpu.stack_slot_address("route")
    if None in (cmd, route) or route <= cmd:
        return b"A" * 64
    return overflow_payload(b"ls", route - cmd, (1).to_bytes(8, "little"))


def _call_bend_attack() -> AttackController:
    return AttackController().add("gets", _call_bend_payload)


# ---------------------------------------------------------------------------
# Cross-heap-section confusion
# ---------------------------------------------------------------------------

_HEAP_CROSS_SOURCE = r"""
// Cross-heap-section confusion: the request buffer and the ACL word
// are heap neighbours in the shared section.  Pythia's sectioning
// relocates the vulnerable buffer to the isolated arena, so the
// overflow can no longer reach the ACL -- unless the allocation is
// misrouted back (the campaign's heap.cross fault models exactly
// that, and the secure allocator's section check must then trap).
int main() {
    char *req;
    int *acl;
    req = malloc(16);
    acl = malloc(8);
    *acl = 0;
    gets(req);
    if (*acl != 0) {
        printf("CROSS-SECTION\n");
        return 1;
    }
    printf("sections hold\n");
    return 0;
}
"""


def _heap_cross_attack() -> AttackController:
    # payload(16) + chunk header(16), then 8 bytes land on *acl.
    return AttackController().add(
        "gets", overflow_payload(b"GET /", 32, (1).to_bytes(8, "little"))
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def build_scenarios() -> Dict[str, Scenario]:
    """All attack scenarios, keyed by name."""
    scenarios = [
        Scenario(
            name="privilege_escalation",
            description="Listing 1: gets() overflow flips the admin check",
            source=_LISTING1_SOURCE,
            benign_inputs=[b"hello"],
            make_attack=_listing1_attack,
            success_marker=b"SUPERUSER",
            benign_marker=b"normal user",
        ),
        Scenario(
            name="proftpd_leak",
            description="Listing 2: bound corruption bends the overflow check",
            source=_PROFTPD_SOURCE,
            benign_inputs=[b"CWD /home"],
            make_attack=_proftpd_attack,
            success_marker=b"LEAK:",
            benign_marker=b"request served",
            detected_by=("cpa", "pythia"),  # DFI: field-insensitive miss
        ),
        Scenario(
            name="pointer_dualism",
            description="Listing 3: overflow into the stride misdirects *p",
            source=_DUALISM_SOURCE,
            benign_inputs=[b"1"],
            make_attack=_dualism_attack,
            success_marker=b"PRIVILEGED",
            benign_marker=b"ok",
        ),
        Scenario(
            name="pointer_misdirection",
            description="§3: legal-dataflow pointer misdirection (no overflow)",
            source=_MISDIRECTION_SOURCE,
            benign_inputs=[b"1"],
            make_attack=_misdirection_attack,
            success_marker=b"PRIVILEGED",
            benign_marker=b"ok",
            detected_by=("cpa",),
        ),
        Scenario(
            name="heap_overflow",
            description="adjacent heap chunks: overflow flips the privilege flag",
            source=_HEAP_SOURCE,
            benign_inputs=[b"GET /index"],
            make_attack=_heap_attack,
            success_marker=b"ADMIN",
            benign_marker=b"guest",
            detected_by=("cpa", "dfi"),
            prevented_by=("pythia",),
        ),
        Scenario(
            name="interprocedural",
            description="callee input channel overflows the caller's frame",
            source=_INTERPROC_SOURCE,
            benign_inputs=[b"alice"],
            make_attack=_interproc_attack,
            success_marker=b"ADMIN",
            benign_marker=b"hello",
        ),
        Scenario(
            name="pac_reuse",
            description="signed-pointer reuse: splice a signed value between slots",
            source=_PAC_REUSE_SOURCE,
            benign_inputs=[b"alice"],
            make_attack=_pac_reuse_attack,
            success_marker=b"SUBSTITUTED",
            benign_marker=b"member ok",
        ),
        Scenario(
            name="call_bend",
            description="call bending: overflow corrupts the dispatch selector",
            source=_CALL_BEND_SOURCE,
            benign_inputs=[b"a", b"b", b"c"],
            make_attack=_call_bend_attack,
            success_marker=b"CALL-BENT",
            benign_marker=b"public ok",
        ),
        Scenario(
            name="heap_cross",
            description="cross-section confusion: shared-heap overflow onto the ACL",
            source=_HEAP_CROSS_SOURCE,
            benign_inputs=[b"GET /x"],
            make_attack=_heap_cross_attack,
            success_marker=b"CROSS-SECTION",
            benign_marker=b"sections hold",
            detected_by=("cpa", "dfi"),
            prevented_by=("pythia",),
        ),
    ]
    return {s.name: s for s in scenarios}
