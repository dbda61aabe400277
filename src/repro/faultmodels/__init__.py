"""Fault models as first-class, registry-dispatched plug-ins.

Four models ship in-tree; registering a fifth is one subclass plus one
:func:`register_model` call (see ``docs/fault-models.md`` for the full
contract and worked examples):

========== =============================== ==============================
model      universe                        faulty semantics
========== =============================== ==============================
input      2 × every gate input pin        pin reads a constant
output     2 × every gate output           gate becomes a constant
bridging   2 × adjacent gate-output pairs  both nets drive ``F_a op F_b``
transition 2 × every gate output           self-sticky ``F∧s`` / ``F∨s``
========== =============================== ==============================

>>> from repro.faultmodels import get_model, model_names
>>> model_names()
['bridging', 'input', 'output', 'transition']
>>> get_model("transition").universe_label
'transition'
"""

from repro._lazy import lazy_exports
from repro.faultmodels.base import register_model
from repro.faultmodels.bridging import BridgingModel
from repro.faultmodels.stuckat import InputStuckAtModel, OutputStuckAtModel
from repro.faultmodels.transition import TransitionModel

#: The built-in model singletons, registered at import time.  That loads
#: every module of this package, so the table below saves no import
#: here; it only lists each public name once.
INPUT_STUCK_AT = register_model(InputStuckAtModel())
OUTPUT_STUCK_AT = register_model(OutputStuckAtModel())
BRIDGING = register_model(BridgingModel())
TRANSITION = register_model(TransitionModel())

_EXPORTS = {
    "repro.faultmodels.base": (
        "FaultModel", "register_model", "unregister_model", "get_model",
        "model_for_kind", "model_names", "rebuild_faulty",
    ),
    "repro.faultmodels.bridging": (
        "adjacent_pairs", "BridgingModel", "WIRED_AND", "WIRED_OR",
    ),
    "repro.faultmodels.stuckat": ("InputStuckAtModel", "OutputStuckAtModel"),
    "repro.faultmodels.transition": (
        "TransitionModel", "SLOW_TO_RISE", "SLOW_TO_FALL",
    ),
    "repro.faultmodels": (
        "INPUT_STUCK_AT", "OUTPUT_STUCK_AT", "BRIDGING", "TRANSITION",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
